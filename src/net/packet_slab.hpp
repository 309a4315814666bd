// Packet storage shared by every queue disc and link of a simulation thread.
//
// A packet is encoded into a slab slot once, when its sender's Node::send
// has routed it, and keeps that slot until its destination node decodes it
// for the sink. In between the slot moves by index: into each hop's queue
// disc, onto each wire, through each switch. Queues and delay lines are
// intrusive FIFOs of slots (SlotFifo), linked through each slot's `next`,
// so neither allocates per packet.
//
// A slot is one 64-byte, 64-aligned frame (Entry): the fields that queues,
// links and switches read, plus the packet kind's primary number and
// timestamp. The rest of a Packet (the other number and timestamp, the SACK
// blocks) goes to an extension record, taken only when one of them is
// non-zero, so the encoding is lossless for every Packet (DESIGN.md §11).
//
// Frames and extension records live in fixed-size chunks, so a reference
// to either stays valid while the slab grows. Released records go on a LIFO
// free list: the next allocation anywhere reuses the record just freed,
// which is still in cache, and the slab's size follows the packets alive
// network-wide rather than any one queue's high-water mark.
//
// Thread-safety contract (relied on by the src/exp experiment harness,
// which runs one independent Scenario per worker thread): everything a
// Scenario touches is owned by its Network (scheduler, RNG, nodes, metrics
// registry) except this slab and its extension pool, of which there is one
// per thread (PacketSlab::local()); the simulator has no process-global
// mutable state. Code calls local() at use time, so a Network must be
// built, run and destroyed on one thread; sharing one across threads, or
// handing one to another thread, is not supported. Slot numbers never
// affect behaviour; they are allocator state, like heap addresses.
//
// Under AddressSanitizer a released frame or extension record is poisoned
// until it is allocated again, so a reference held past release is
// reported like a use after free.
#pragma once

#include <array>
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

namespace detail {

// Records of type T in chunks of 256 that never move, with a LIFO free list
// threaded through each record's `next`. Under ASan a free record is
// poisoned after `next`, its first member: ASan can poison the tail of an
// 8-byte granule but not its head, so `next` comes first.
template <class T>
class ChunkedPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNone = std::numeric_limits<Index>::max();

  ChunkedPool() = default;
  ChunkedPool(const ChunkedPool&) = delete;
  ChunkedPool& operator=(const ChunkedPool&) = delete;
  ~ChunkedPool() {
#ifdef CEBINAE_SLAB_ASAN
    for (auto& chunk : chunks_) ASAN_UNPOISON_MEMORY_REGION(chunk.get(), sizeof(T) * kChunkSlots);
#endif
  }

  [[nodiscard]] Index alloc() {
    if (free_ == kNone) grow();
    const Index i = free_;
    T& r = (*this)[i];
    free_ = r.next;
    unpoison(r);
    ++live_;
    return i;
  }

  void release(Index i) {
    T& r = (*this)[i];
    poison(r);
    r.next = free_;
    free_ = i;
    assert(live_ > 0);
    --live_;
  }

  [[nodiscard]] T& operator[](Index i) {
    assert(i >> kChunkBits < chunks_.size());
    return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
  }
  [[nodiscard]] const T& operator[](Index i) const {
    assert(i >> kChunkBits < chunks_.size());
    return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
  }

  [[nodiscard]] std::uint64_t live() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkSlots; }

  // Calls f(i) for every allocated record, in index order. Walks the free
  // list: O(capacity), for consistency checks.
  template <class F>
  void for_each_live(F&& f) const {
    std::vector<bool> free(capacity());
    for (Index i = free_; i != kNone; i = (*this)[i].next) free[i] = true;
    for (Index i = 0; i < free.size(); ++i) {
      if (!free[i]) f(i);
    }
  }

 private:
  static constexpr unsigned kChunkBits = 8;
  static constexpr Index kChunkSlots = Index{1} << kChunkBits;

  // Adds a chunk and threads its records onto the free list, lowest first.
  void grow() {
    const auto base = static_cast<Index>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunkSlots));
    T* chunk = chunks_.back().get();
    for (Index i = kChunkSlots; i-- > 0;) {
      chunk[i].next = free_;
      free_ = base + i;
      poison(chunk[i]);
    }
  }

  static_assert(offsetof(T, next) == 0);
  static constexpr std::size_t kTail = sizeof(T::next);

  static void poison([[maybe_unused]] T& r) {
#ifdef CEBINAE_SLAB_ASAN
    ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(&r) + kTail, sizeof(T) - kTail);
#endif
  }
  static void unpoison([[maybe_unused]] T& r) {
#ifdef CEBINAE_SLAB_ASAN
    ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<char*>(&r) + kTail, sizeof(T) - kTail);
#endif
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  Index free_ = kNone;
  std::uint64_t live_ = 0;
};

}  // namespace detail

class PacketSlab {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNone = std::numeric_limits<Slot>::max();

  // One frame in one cache line. The kind's primary number and timestamp
  // are `seq`/`ts_sent` for data and `ack`/`ts_echo` for an ACK.
  struct alignas(64) Entry {
    Slot next = kNone;         // link in a SlotFifo or the free list
    Slot ext = kNone;          // extension record, or kNone
    std::uint64_t number = 0;  // the kind's primary number
    Time time;                 // the kind's primary timestamp
    Time stamp;                // enqueue time in a queue disc; arrival time on the wire
    std::uint64_t seq = 0;     // the arrival's reserved scheduler seq, on the wire
    FlowId flow;
    std::uint32_t size_bytes = 0;
    std::uint32_t payload_bytes = 0;
    Packet::Kind kind = Packet::Kind::kTcpData;
    std::uint8_t sack_count = 0;
  };
  static_assert(sizeof(Entry) == 64 && alignof(Entry) == 64);

  // What a frame leaves out: the kind's other number and timestamp
  // (`ack`/`ts_echo` for data, `seq`/`ts_sent` for an ACK) and the
  // SACK blocks.
  struct Extension {
    Slot next = kNone;  // link in the free list
    std::uint64_t number = 0;
    Time time;
    std::array<Packet::SackBlock, 3> sack{};
  };

  // The calling thread's slab.
  [[nodiscard]] static PacketSlab& local() {
    static thread_local PacketSlab slab;
    return slab;
  }

  PacketSlab() = default;
  PacketSlab(const PacketSlab&) = delete;
  PacketSlab& operator=(const PacketSlab&) = delete;

  // Encodes `pkt` into a new frame stamped `stamp`.
  [[nodiscard]] Slot alloc(const Packet& pkt, Time stamp) {
    const Slot s = frames_.alloc();
    Entry& e = frames_[s];
    const bool ack = pkt.kind == Packet::Kind::kTcpAck;
    e.number = ack ? pkt.ack : pkt.seq;
    e.time = ack ? pkt.ts_echo : pkt.ts_sent;
    e.stamp = stamp;
    e.flow = pkt.flow;
    e.size_bytes = pkt.size_bytes;
    e.payload_bytes = pkt.payload_bytes;
    e.kind = pkt.kind;
    e.sack_count = pkt.sack_count;
    e.ext = kNone;
    const std::uint64_t other = ack ? pkt.seq : pkt.ack;
    const Time other_time = ack ? pkt.ts_sent : pkt.ts_echo;
    std::uint64_t sack_bits = 0;
    for (const Packet::SackBlock& b : pkt.sack) sack_bits |= b.begin | b.end;
    if ((other | static_cast<std::uint64_t>(other_time.ns()) | sack_bits) != 0) {
      e.ext = extensions_.alloc();
      Extension& x = extensions_[e.ext];
      x.number = other;
      x.time = other_time;
      x.sack = pkt.sack;
    }
    ++allocations_;
    return s;
  }

  // Decodes the frame in slot s.
  [[nodiscard]] Packet packet(Slot s) const {
    const Entry& e = frames_[s];
    const Extension* x = e.ext != kNone ? &extensions_[e.ext] : nullptr;
    const std::uint64_t other = x != nullptr ? x->number : 0;
    const Time other_time = x != nullptr ? x->time : Time::zero();
    const bool ack = e.kind == Packet::Kind::kTcpAck;
    // Every member named, so nothing is zeroed first and then overwritten.
    return Packet{.flow = e.flow,
                  .kind = e.kind,
                  .size_bytes = e.size_bytes,
                  .payload_bytes = e.payload_bytes,
                  .seq = ack ? other : e.number,
                  .ack = ack ? e.number : other,
                  .sack = x != nullptr ? x->sack : std::array<Packet::SackBlock, 3>{},
                  .sack_count = e.sack_count,
                  .ts_sent = ack ? other_time : e.time,
                  .ts_echo = ack ? e.time : other_time};
  }

  // Releases slot s and its extension record.
  void release(Slot s) {
    const Slot x = frames_[s].ext;
    if (x != kNone) extensions_.release(x);
    frames_.release(s);
  }

  [[nodiscard]] Entry& operator[](Slot s) { return frames_[s]; }
  [[nodiscard]] Extension& extension(Slot x) { return extensions_[x]; }

  // Starts loading slot s (kNone: nothing) into the cache ahead of a read.
  // A frame is read a queueing or propagation delay after it was written,
  // by when the slab has usually left the cache (DESIGN.md §11).
  void prefetch(Slot s) {
    if (s != kNone) __builtin_prefetch(&frames_[s]);
  }

  // Frames allocated and not yet released.
  [[nodiscard]] std::uint64_t live() const { return frames_.live(); }
  // Frames ever allocated (one per packet a node sent).
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  // Extension records allocated and not yet released.
  [[nodiscard]] std::uint64_t live_extensions() const { return extensions_.live(); }
  // Live frames that hold an extension record. Walks the free list, so it
  // costs O(slots) and is meant for consistency checks: it equals
  // live_extensions() unless a record leaked.
  [[nodiscard]] std::uint64_t frames_with_extension() const {
    std::uint64_t n = 0;
    frames_.for_each_live([&](Slot s) { n += frames_[s].ext != kNone; });
    return n;
  }

 private:
  detail::ChunkedPool<Entry> frames_;
  detail::ChunkedPool<Extension> extensions_;
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
  // Prefetches the new head, which the next pop reads.
  Slot pop_front(PacketSlab& slab) {
    assert(size_ != 0);
    const Slot s = head_;
    head_ = slab[s].next;
    --size_;
    slab.prefetch(head_);
    return s;
  }

 private:
  Slot head_ = PacketSlab::kNone;
  Slot tail_ = PacketSlab::kNone;
  std::uint32_t size_ = 0;
};

}  // namespace cebinae
