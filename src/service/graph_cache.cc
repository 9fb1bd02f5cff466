#include "service/graph_cache.h"

#include <utility>

namespace soma {

GraphCache::GraphCache(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{
}

std::shared_ptr<const Graph>
GraphCache::Get(const std::string &model, int batch,
                const ModelRegistry &models, std::string *err)
{
    const std::string key = model + "#" + std::to_string(batch);
    MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        return it->second->graph;
    }
    const ModelRegistry::Builder *build = models.Find(model, err);
    if (!build) return nullptr;
    ++stats_.misses;
    auto graph = std::make_shared<const Graph>((*build)(batch));
    lru_.push_front(Entry{key, graph});
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
    return graph;
}

std::size_t
GraphCache::size() const
{
    MutexLock lock(mutex_);
    return lru_.size();
}

GraphCache::Stats
GraphCache::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
GraphCache::Clear()
{
    MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_ = Stats{};
}

}  // namespace soma
