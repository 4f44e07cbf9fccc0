// HoldStore — a test decorator that parks the first store call matching an
// armed predicate until the test releases it.
//
// A test arms it, starts the operation whose store call it wants in flight,
// waits until that call is parked (AwaitHeld), runs its interleaving, and
// then releases the call. No sleeps decide the schedule: the parked call is
// the window.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/clock.h"
#include "objstore/store_decorator.h"

namespace arkfs {

class HoldStore : public StoreDecorator {
 public:
  // `op` is one of "get", "getrange", "put", "putrange", "putrangeif".
  using Match =
      std::function<bool(std::string_view op, const std::string& key)>;

  using StoreDecorator::StoreDecorator;

  // The next call `match` accepts is held (one shot).
  void Arm(Match match) {
    std::lock_guard lock(mu_);
    match_ = std::move(match);
  }

  // True once the armed call is parked; false after `timeout` without one.
  bool AwaitHeld(Nanos timeout = Seconds(10)) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return held_; });
  }

  // Lets the parked call (and any later one) go through to the store.
  void Release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  // True once the held call has returned from the store below.
  bool finished() {
    std::lock_guard lock(mu_);
    return finished_;
  }

  Result<Bytes> Get(const std::string& key) override {
    return Through("get", key, [&] { return base()->Get(key); });
  }
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override {
    return Through("getrange", key,
                   [&] { return base()->GetRange(key, offset, length); });
  }
  Status Put(const std::string& key, ByteSpan data) override {
    return Through("put", key, [&] { return base()->Put(key, data); });
  }
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override {
    return Through("putrange", key,
                   [&] { return base()->PutRange(key, offset, data); });
  }
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override {
    return Through("putrangeif", key, [&] {
      return base()->PutRangeIf(key, offset, data, guard);
    });
  }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Through(std::string_view op, const std::string& key,
                                   Fn&& call) {
    bool holding = false;
    {
      std::unique_lock lock(mu_);
      if (match_ && match_(op, key)) {
        match_ = nullptr;
        holding = held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    auto result = call();
    if (holding) {
      std::lock_guard lock(mu_);
      finished_ = true;
    }
    return result;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Match match_;
  bool held_ = false;
  bool released_ = false;
  bool finished_ = false;
};

}  // namespace arkfs
