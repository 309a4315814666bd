// Packet storage shared by every queue disc and link of a simulation thread.
//
// A queue disc copies an admitted packet into a slab slot once; the slot
// then moves through the queue, onto the wire and to delivery by index, and
// the receiving device releases it after the peer node has handled the
// packet. Queues and delay lines are intrusive FIFOs of slots (SlotFifo),
// linked through each slot's `next`, so neither allocates per packet.
//
// Slots live in fixed-size chunks, so a reference to a slot stays valid
// while the slab grows. Released slots go on a LIFO free list: the next
// admission anywhere reuses the slot just freed, which is still in cache,
// and the slab's size follows the packets alive network-wide rather than
// any one queue's high-water mark (DESIGN.md §11).
//
// Thread-safety contract (relied on by the src/exp experiment harness,
// which runs one independent Scenario per worker thread): everything a
// Scenario touches is owned by its Network (scheduler, RNG, nodes, metrics
// registry) except this slab, of which there is one per thread
// (PacketSlab::local()); the simulator has no process-global mutable state.
// Code calls local() at use time, so a Network must be built, run and
// destroyed on one thread; sharing one across threads, or handing one to
// another thread, is not supported. Slot numbers never affect behaviour;
// they are allocator state, like heap addresses.
//
// Under AddressSanitizer a released slot's packet is poisoned until the
// slot is allocated again, so a reference held past release is reported
// like a use after free.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CEBINAE_SLAB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CEBINAE_SLAB_ASAN 1
#endif
#endif
#ifdef CEBINAE_SLAB_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cebinae {

class PacketSlab {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNone = std::numeric_limits<Slot>::max();

  struct Entry {
    Packet pkt;
    Time stamp;             // enqueue time in a queue disc; arrival time on the wire
    std::uint64_t seq = 0;  // the arrival's reserved scheduler seq, on the wire
    Slot next = kNone;      // link in a SlotFifo or the free list
  };

  // The calling thread's slab.
  [[nodiscard]] static PacketSlab& local() {
    static thread_local PacketSlab slab;
    return slab;
  }

  PacketSlab() = default;
  PacketSlab(const PacketSlab&) = delete;
  PacketSlab& operator=(const PacketSlab&) = delete;
  ~PacketSlab() {
    for (auto& chunk : chunks_) unpoison_chunk(chunk.get());
  }

  [[nodiscard]] Slot alloc(const Packet& pkt, Time stamp) {
    if (free_ == kNone) grow();
    const Slot s = free_;
    Entry& e = (*this)[s];
    free_ = e.next;
    unpoison(e);
    e.pkt = pkt;
    e.stamp = stamp;
    ++live_;
    ++allocations_;
    return s;
  }

  void release(Slot s) {
    Entry& e = (*this)[s];
    poison(e);
    e.next = free_;
    free_ = s;
    assert(live_ > 0);
    --live_;
  }

  [[nodiscard]] Entry& operator[](Slot s) {
    assert(s >> kChunkBits < chunks_.size());
    return chunks_[s >> kChunkBits][s & (kChunkSlots - 1)];
  }

  // Slots allocated and not yet released.
  [[nodiscard]] std::uint64_t live() const { return live_; }
  // Slots ever allocated (one per admitted packet per hop).
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  static constexpr unsigned kChunkBits = 8;
  static constexpr Slot kChunkSlots = Slot{1} << kChunkBits;

  // Adds a chunk and threads its slots onto the free list, lowest first.
  void grow() {
    const auto base = static_cast<Slot>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(kChunkSlots));
    Entry* chunk = chunks_.back().get();
    for (Slot i = kChunkSlots; i-- > 0;) {
      chunk[i].next = free_;
      free_ = base + i;
      poison(chunk[i]);
    }
  }

  // Everything but `next`, which the free list uses.
  static void poison([[maybe_unused]] Entry& e) {
#ifdef CEBINAE_SLAB_ASAN
    ASAN_POISON_MEMORY_REGION(&e, offsetof(Entry, next));
#endif
  }
  static void unpoison([[maybe_unused]] Entry& e) {
#ifdef CEBINAE_SLAB_ASAN
    ASAN_UNPOISON_MEMORY_REGION(&e, offsetof(Entry, next));
#endif
  }
  static void unpoison_chunk([[maybe_unused]] Entry* chunk) {
#ifdef CEBINAE_SLAB_ASAN
    ASAN_UNPOISON_MEMORY_REGION(chunk, sizeof(Entry) * kChunkSlots);
#endif
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Slot free_ = kNone;
  std::uint64_t live_ = 0;
  std::uint64_t allocations_ = 0;
};

// An intrusive FIFO of slab slots, linked through Entry::next. It owns the
// slots it holds: destroying a non-empty SlotFifo releases them, so a queue
// disc or device torn down with packets queued frees them with it.
class SlotFifo {
 public:
  using Slot = PacketSlab::Slot;

  SlotFifo() = default;
  SlotFifo(const SlotFifo&) = delete;
  SlotFifo& operator=(const SlotFifo&) = delete;
  ~SlotFifo() {
    if (size_ == 0) return;
    PacketSlab& slab = PacketSlab::local();
    while (size_ != 0) slab.release(pop_front(slab));
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] Slot front() const { return head_; }
  [[nodiscard]] Slot back() const { return tail_; }

  void push_back(PacketSlab& slab, Slot s) {
    slab[s].next = PacketSlab::kNone;
    if (size_++ == 0) {
      head_ = s;
    } else {
      slab[tail_].next = s;
    }
    tail_ = s;
  }

  // Unlinks and returns the head slot; the caller owns it. Requires !empty().
  Slot pop_front(PacketSlab& slab) {
    assert(size_ != 0);
    const Slot s = head_;
    head_ = slab[s].next;
    --size_;
    return s;
  }

 private:
  Slot head_ = PacketSlab::kNone;
  Slot tail_ = PacketSlab::kNone;
  std::uint32_t size_ = 0;
};

}  // namespace cebinae
