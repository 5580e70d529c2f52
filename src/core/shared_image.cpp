#include "core/shared_image.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "core/view.hpp"

namespace fc::core {

void SharedImage::capture_machine(const mem::Machine& m) {
  guest_phys_mib = m.guest_phys_pages() / (1024 * 1024 / kPageSize);
  const mem::HostMemory& host = m.host();
  for (u32 page = 0; page < m.guest_phys_pages(); ++page) {
    HostFrame f = m.boot_frame_for(static_cast<GPhys>(page) * kPageSize);
    std::span<const u8> bytes = host.frame(f);
    if (std::memcmp(bytes.data(), mem::zero_page_data(), kPageSize) == 0)
      continue;  // zero pages stay zero-backed in clones
    machine.pages.emplace_back(page, store.add_page(bytes));
  }
}

void SharedImage::capture_view(const mem::HostMemory& host,
                               const KernelView& view,
                               const KernelViewConfig& config) {
  std::unordered_set<u32> module_pages;
  for (const KernelView::PteOverride& pte : view.module_ptes)
    module_pages.insert(pte.gpa() >> kPageShift);

  SharedView sv;
  sv.config = config;
  sv.loaded = view.loaded;
  for (u32 gpp : view.shadow_page_order) {
    HostFrame f = view.shadow_frames.at(gpp);
    sv.pages.push_back({gpp, store.add_page(host.frame(f)),
                        module_pages.count(gpp) != 0});
  }
  views.push_back(std::move(sv));
}

void SharedImage::finalize() {
  store.freeze();
  machine.store = &store;
  decode = std::make_unique<cpu::DecodeStore>(store);
}

}  // namespace fc::core
