/**
 * @file
 * NamedRegistry<T>: the one name -> value table behind every pluggable
 * registry (models, hardware points, schedulers, memory models).
 *
 * Entries keep registration order: Names() lists them in that order and
 * re-registering a known name replaces its value in place, keeping its
 * position. Lookups never die: Find on an unknown name returns nullptr
 * and sets the error to
 *
 *     unknown <kind> "<name>" (registered: a, b)
 *
 * where <kind> is the noun given to the constructor. Lookup is a linear
 * scan — registries hold a handful of names and are consulted once per
 * cold request. Registration is not synchronized: configure registries
 * before looking names up from multiple threads.
 */
#ifndef SOMA_COMMON_NAMED_REGISTRY_H
#define SOMA_COMMON_NAMED_REGISTRY_H

#include <string>
#include <utility>
#include <vector>

namespace soma {

template <typename T>
class NamedRegistry {
  public:
    /** @p kind names the entries in error messages ("model", ...). */
    explicit NamedRegistry(const char *kind) : kind_(kind) {}

    /** Registers @p value, or replaces a known name's value in place. */
    void Register(const std::string &name, T value)
    {
        for (auto &kv : entries_) {
            if (kv.first == name) {
                kv.second = std::move(value);
                return;
            }
        }
        entries_.emplace_back(name, std::move(value));
    }

    bool Has(const std::string &name) const
    {
        return Find(name, nullptr) != nullptr;
    }

    /** Registered names, registration order. */
    std::vector<std::string> Names() const
    {
        std::vector<std::string> names;
        names.reserve(entries_.size());
        for (const auto &kv : entries_) names.push_back(kv.first);
        return names;
    }

    /** Pointer into the registry (stable until the next Register), or
     *  nullptr with @p err (if non-null) listing the registered names. */
    const T *Find(const std::string &name, std::string *err) const
    {
        for (const auto &kv : entries_)
            if (kv.first == name) return &kv.second;
        if (err) {
            std::string joined;
            for (const auto &kv : entries_) {
                if (!joined.empty()) joined += ", ";
                joined += kv.first;
            }
            *err = "unknown " + std::string(kind_) + " \"" + name +
                   "\" (registered: " + joined + ")";
        }
        return nullptr;
    }

  private:
    const char *kind_;
    std::vector<std::pair<std::string, T>> entries_;
};

}  // namespace soma

#endif  // SOMA_COMMON_NAMED_REGISTRY_H
