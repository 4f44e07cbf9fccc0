// StoreDecorator — the one base every ObjectStore wrapper derives from.
//
// Holds the inner store and default-forwards the full ObjectStore surface
// (ten ops, the two guarded writes and the guarded delete included, plus
// the capability bits), so a decorator overrides exactly the operations it
// cares about and inherits pass-through behaviour for the rest. The in-tree
// decorators are Instrumented (counters, histograms, spans), Retrying and
// Chaos (scripted and seeded faults), plus the EC and tiering placement
// layers; StackBuilder composes them in one order.
#pragma once

#include "objstore/object_store.h"

namespace arkfs {

class StoreDecorator : public ObjectStore {
 public:
  explicit StoreDecorator(ObjectStorePtr base) : base_(std::move(base)) {}

  Result<Bytes> Get(const std::string& key) override {
    return base_->Get(key);
  }
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override {
    return base_->GetRange(key, offset, length);
  }
  Status Put(const std::string& key, ByteSpan data) override {
    return base_->Put(key, data);
  }
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override {
    return base_->PutRange(key, offset, data);
  }
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override {
    return base_->PutIf(key, data, guard);
  }
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override {
    return base_->PutRangeIf(key, offset, data, guard);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override {
    return base_->DeleteIf(key, guard);
  }
  Result<ObjectMeta> Head(const std::string& key) override {
    return base_->Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }

  bool supports_partial_write() const override {
    return base_->supports_partial_write();
  }
  // The wrapped store — lets callers walk a decorator chain (e.g. to find
  // the ClusterObjectStore at the bottom for placement probes).
  const ObjectStorePtr& inner() const { return base_; }
  std::uint64_t max_object_size() const override {
    return base_->max_object_size();
  }
  std::string name() const override { return base_->name(); }

 protected:
  const ObjectStorePtr& base() const { return base_; }

 private:
  ObjectStorePtr base_;
};

}  // namespace arkfs
