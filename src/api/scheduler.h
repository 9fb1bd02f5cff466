/**
 * @file
 * soma::Scheduler — the unified entry point for scheduling requests
 * (the Fig. 5 pipeline as a service). One object owns the three
 * registries and a worker pool; consumers hand it ScheduleRequests and
 * get ScheduleResults back, either synchronously (Schedule) or through
 * the asynchronous Submit/Wait path that multiplexes any number of
 * concurrent requests onto the shared pool.
 *
 * Determinism contract: a result depends only on the request (model,
 * hardware, scheduler, profile, seed, objective, chains) — never on how
 * many sibling requests are in flight, which worker ran it, or how many
 * driver threads it was granted. The SearchDriver guarantees the
 * thread-count independence; the facade adds per-job isolation (each
 * job's search state lives entirely inside its pipeline call).
 *
 * Cancellation is cooperative and iteration-granular: Cancel() marks
 * the job, the annealing loops poll the flag every
 * SaOptions::cancel_check_interval iterations (RunSaWindow), and the
 * pipeline gives up at the next phase boundary (queued jobs never
 * start). ScheduleRequest::deadline_ms rides the same mechanism: the
 * search stops once the wall-clock budget is spent and the result is
 * marked deadline_expired (ok with the best-so-far scheme if one was
 * found, an error otherwise).
 *
 * The legacy free functions (RunSoma, RunCocco, GenerateIr, ...) remain
 * as thin compatibility wrappers — the facade is built from them.
 */
#ifndef SOMA_API_SCHEDULER_H
#define SOMA_API_SCHEDULER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/request.h"
#include "common/thread_annotations.h"
#include "hw/memory_model.h"

namespace soma {

class Scheduler {
  public:
    using JobId = std::uint64_t;

    struct Options {
        /** Worker threads serving Submit()ted jobs. */
        int workers = 2;
        /** SearchDriver thread budget shared by all in-flight async
         *  jobs (0 = hardware_concurrency). Affects wall-clock only,
         *  never results. */
        int driver_threads = 0;
    };

    Scheduler();
    explicit Scheduler(const Options &options);

    /** Blocks until every submitted job has finished (Cancel first for
     *  a fast shutdown), then joins the workers. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** The pluggable extension points. Configure before scheduling;
     *  registration is not synchronized with in-flight jobs. */
    ModelRegistry &models() { return models_; }
    HardwareRegistry &hardware() { return hardware_; }
    SchedulerRegistry &schedulers() { return schedulers_; }
    MemoryModelRegistry &memory_models() { return memory_models_; }

    /** Run @p request to completion in the calling thread. A request
     *  that fails ScheduleRequest::Validate() (here or under Submit)
     *  comes back ok=false with the field's message, unsearched. */
    ScheduleResult Schedule(const ScheduleRequest &request);

    /** Enqueue @p request; returns immediately. Workers are started
     *  lazily on first use. */
    JobId Submit(ScheduleRequest request) SOMA_EXCLUDES(mutex_);

    /** Cooperative cancel. True if the job exists and was not yet
     *  finished. A running search observes the flag within
     *  SaOptions::cancel_check_interval iterations and the job
     *  completes with error "cancelled". */
    bool Cancel(JobId id) SOMA_EXCLUDES(mutex_);

    /** True once the job's result is available. False for unknown
     *  (or already collected) ids. */
    bool Done(JobId id) const SOMA_EXCLUDES(mutex_);

    /** Block until @p id finishes and collect its result. Each job can
     *  be waited on exactly once; unknown ids yield ok=false. */
    ScheduleResult Wait(JobId id) SOMA_EXCLUDES(mutex_);

    /** Drop a job without collecting it: cancels it if still pending
     *  and releases its result as soon as it exists. Results are
     *  otherwise retained until Wait() — fire-and-forget traffic must
     *  Discard() (or Wait()) every job it will not collect, or the
     *  result store grows with each submission. */
    void Discard(JobId id) SOMA_EXCLUDES(mutex_);

  private:
    /** One submitted request. `cancelled` is the lock-free cooperative
     *  flag the search loops poll; `discarded`/`done`/`result` are
     *  protected by the owning Scheduler's mutex_ — a cross-object
     *  contract the analysis cannot express on these members, enforced
     *  by the annotated Submit/Wait/Discard/WorkerLoop paths that do
     *  all access. */
    struct Job {
        JobId id = 0;
        ScheduleRequest request;
        std::atomic<bool> cancelled{false};
        bool discarded = false;
        bool done = false;
        ScheduleResult result;
    };

    ScheduleResult RunPipeline(const ScheduleRequest &request, JobId id,
                               const std::atomic<bool> *cancelled);
    void WorkerLoop() SOMA_EXCLUDES(mutex_);
    void EnsureWorkersLocked() SOMA_REQUIRES(mutex_);

    const Options options_;
    /* Registries are configured before scheduling starts and are not
     * synchronized with in-flight jobs (documented contract above). */
    ModelRegistry models_;          // somalint: allow(guarded-field)
    HardwareRegistry hardware_;     // somalint: allow(guarded-field)
    SchedulerRegistry schedulers_;  // somalint: allow(guarded-field)
    MemoryModelRegistry memory_models_;  // somalint: allow(guarded-field)

    /** Lock order: leaf — never held while running a pipeline or
     *  joining a worker. */
    mutable Mutex mutex_;
    CondVar work_cv_;  ///< queue -> workers
    CondVar done_cv_;  ///< workers -> Wait()
    std::deque<std::shared_ptr<Job>> queue_ SOMA_GUARDED_BY(mutex_);
    std::map<JobId, std::shared_ptr<Job>> jobs_ SOMA_GUARDED_BY(mutex_);
    std::vector<std::thread> workers_ SOMA_GUARDED_BY(mutex_);
    JobId next_id_ SOMA_GUARDED_BY(mutex_) = 1;
    /** Jobs currently executing a pipeline. */
    int inflight_ SOMA_GUARDED_BY(mutex_) = 0;
    bool stopping_ SOMA_GUARDED_BY(mutex_) = false;
};

}  // namespace soma

#endif  // SOMA_API_SCHEDULER_H
