// RCU snapshot store: the serving front end's source of truth.
//
// Every accepted refresh/recalibration publishes an immutable,
// monotonically versioned ConstantSnapshot per tenant (the store is the
// online::SnapshotSink the ConstantFinderService hands its results to).
// Query threads acquire the current snapshot with a wait-free seq_cst
// pointer load under an EpochDomain read guard; replaced versions are
// retired into the domain and reclaimed only after the last reader
// epoch that could reference them drains (see serving/epoch.hpp).
//
// Concurrency contract:
//  * one writer per tenant at a time (the service guarantees a tenant is
//    owned by exactly one driver); different tenants publish
//    concurrently — registration and retirement serialize on the
//    domain's writer mutex, the pointer swap itself is a lone atomic
//    exchange;
//  * readers never lock, never retry, and never observe a torn or
//    reclaimed snapshot: versions are strictly monotone per tenant and
//    a Ref pins whatever it acquired until it goes out of scope.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/constant_finder.hpp"
#include "online/service.hpp"
#include "serving/epoch.hpp"

namespace netconst::serving {

/// One published decomposition result. Immutable after publish: readers
/// share it freely without synchronization.
struct ConstantSnapshot {
  std::string tenant;
  /// Strictly monotone per tenant, starting at 1. The identity clients
  /// (and the plan cache) key caching and invalidation on.
  std::uint64_t version = 0;
  /// Refresh ordinal at the service that produced this snapshot.
  std::uint64_t refresh = 0;
  /// Provider time at publication.
  double published_at = 0.0;
  core::ConstantComponent component;
};

class SnapshotStore final : public online::SnapshotSink {
 public:
  static constexpr std::size_t kMaxTenants = 64;

  explicit SnapshotStore(EpochDomain& epoch) : epoch_(&epoch) {}
  ~SnapshotStore() override;

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// online::SnapshotSink — called by the service after every accepted
  /// refresh. Registers the tenant on first publish.
  void publish(const std::string& tenant,
               const core::ConstantComponent& component, double provider_now,
               std::uint64_t refresh) override;

  /// A pinned snapshot reference: holds the epoch read guard for its
  /// lifetime, so the pointed-to snapshot cannot be reclaimed while the
  /// Ref is alive. Check operator bool — a tenant that never published
  /// yields an empty Ref.
  class Ref {
   public:
    Ref(EpochDomain::Reader& reader, const std::atomic<const ConstantSnapshot*>* slot)
        : guard_(reader),
          snapshot_(slot == nullptr
                        ? nullptr
                        : slot->load(std::memory_order_seq_cst)) {}

    explicit operator bool() const { return snapshot_ != nullptr; }
    const ConstantSnapshot& operator*() const { return *snapshot_; }
    const ConstantSnapshot* operator->() const { return snapshot_; }
    const ConstantSnapshot* get() const { return snapshot_; }

   private:
    EpochDomain::ReadGuard guard_;
    const ConstantSnapshot* snapshot_;
  };

  /// Wait-free: pin the current snapshot of tenant slot `tenant_index`
  /// (from find() or publish order). Allocation-free.
  Ref acquire(std::size_t tenant_index, EpochDomain::Reader& reader) const;

  /// Tenant slot index for a name, or npos. Allocation-free, lock-free
  /// (names are immutable once registered).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(std::string_view tenant) const;

  std::size_t tenant_count() const {
    return count_.load(std::memory_order_acquire);
  }
  const std::string& tenant_name(std::size_t tenant_index) const;
  /// Current version of a tenant slot (0 = never published).
  std::uint64_t version(std::size_t tenant_index) const;

  /// Total snapshots ever published (all tenants).
  std::uint64_t published_total() const {
    return published_total_.load(std::memory_order_relaxed);
  }

  EpochDomain& epoch() const { return *epoch_; }

  /// Invoked after every publish with (tenant_index, new_version), on
  /// the publishing thread — the serving front end uses it to drop
  /// plan-cache entries of superseded versions. Set before traffic.
  void set_publish_hook(
      std::function<void(std::size_t, std::uint64_t)> hook) {
    publish_hook_ = std::move(hook);
  }

 private:
  struct alignas(64) TenantSlot {
    std::string name;  // immutable once the slot is visible
    std::atomic<const ConstantSnapshot*> current{nullptr};
    std::atomic<std::uint64_t> version{0};
  };

  /// Find-or-register the slot for `tenant` (writer side).
  std::size_t writer_slot(const std::string& tenant);

  EpochDomain* epoch_;
  std::array<TenantSlot, kMaxTenants> slots_;
  std::atomic<std::size_t> count_{0};
  std::mutex register_mutex_;
  std::atomic<std::uint64_t> published_total_{0};
  std::function<void(std::size_t, std::uint64_t)> publish_hook_;
};

}  // namespace netconst::serving
