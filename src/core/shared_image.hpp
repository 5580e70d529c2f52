// Immutable per-kernel artifacts built once and referenced by every VM in a
// fleet: the assembled kernel image and module images (SharedBoot), the
// post-boot guest-physical memory image (MachineImage over a frozen
// SharedFrameStore), every captured kernel view's shadow pages and loaded
// ranges, the static-analysis audit, and prebuilt switch-delta descriptors
// for all (from, to) view pairs, plus the decode store every VM's block
// cache reads shared code from (cpu::DecodeStore).
//
// Why descriptors can be captured at all: frame numbers and EPT table ids
// are allocation-order-deterministic, and a clone VM constructed from the
// image replays the template's exact allocation order (Machine guest pages
// in page order, then each view's shadow frames via
// ViewBuilder::build_shared in the recorded order). The capture records the
// frame/table counts at each stage and the clone validates them, so a
// divergence is a hard FC_CHECK, not silent corruption.
//
// A SharedImage is immutable after capture and must outlive every VM
// constructed from it; concurrent readers need no locks. Its only mutable
// state is the store's refcounts (atomic) and the decode store, which only
// ever adds decodes of immutable store pages (its own per-shard locks).
#pragma once

#include <memory>
#include <vector>

#include "core/static_audit.hpp"
#include "core/switchdelta.hpp"
#include "core/viewconfig.hpp"
#include "mem/shared_frames.hpp"
#include "os/os_runtime.hpp"
#include "vcpu/decode_store.hpp"

namespace fc::core {

struct KernelView;

/// One kernel view captured into shared store pages.
struct SharedView {
  KernelViewConfig config;
  struct Page {
    u32 gpp = 0;         // guest-physical page the shadow covers
    u32 store_page = 0;  // SharedFrameStore id holding its bytes
    bool module = false;  // true = step-3B PTE override, false = base code
  };
  /// In the template's shadow-frame allocation order (see
  /// KernelView::shadow_page_order).
  std::vector<Page> pages;
  RangeList loaded;
};

struct SharedImage {
  mem::SharedFrameStore store;
  u32 guest_phys_mib = 64;

  /// Prebuilt kernel + module images (OsRuntime skips assembly).
  os::SharedBoot boot;
  /// Non-zero guest-physical pages after the template boot.
  mem::MachineImage machine;

  /// Views in template load order; clone view ids are 1..views.size() when
  /// adopted through FaceChangeEngine::adopt_shared_views.
  std::vector<SharedView> views;
  /// Audit keyed by those same view ids.
  StaticAudit audit;

  struct PrebuiltSwitch {
    u32 from = 0;
    u32 to = 0;
    SwitchDescriptor descriptor;
  };
  /// All (from, to) pairs over {full view, 1..views.size()}.
  std::vector<PrebuiltSwitch> switches;

  /// Decodes of `store` pages shared by every VM's block cache; created by
  /// finalize() (it indexes the frozen store).
  std::unique_ptr<cpu::DecodeStore> decode;

  /// Allocation-order invariants a clone validates while rehydrating.
  u32 frames_after_boot = 0;
  u32 frames_after_views = 0;

  SharedImage() = default;
  SharedImage(const SharedImage&) = delete;
  SharedImage& operator=(const SharedImage&) = delete;

  // --- capture (template side; store must not be frozen yet) -------------

  /// Capture every non-zero guest-physical page of the booted template
  /// machine into the store and record it in `machine`.
  void capture_machine(const mem::Machine& m);
  /// Capture one built view's shadow pages (in allocation order).
  void capture_view(const mem::HostMemory& host, const KernelView& view,
                    const KernelViewConfig& config);
  /// Freeze the store, point `machine.store` at it and create the decode
  /// store. After this the image is immutable and VMs may attach.
  void finalize();
};

}  // namespace fc::core
