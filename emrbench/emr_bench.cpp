// The repository benchmark. Each workload builds its allocator,
// reclaimer and structure through the public factories
// (alloc::make_allocator, smr::make_reclaimer, ds::make_set /
// ds::make_queue) and drives them from three closed-loop client
// threads. Everything is timed from outside the library: set-up, the
// measured window, per-op latency on every 4th op, and garbage sampled
// every 10 ms through Reclaimer::stats(). The traced run wraps the
// allocator in TimedAllocator and opens a span around every structure
// call. README.md lists the workloads, the metrics and how to read them.
//
//   emr_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--sets K] [--git-sha SHA]
//
// Each workload ends its output with one JSON line with the keys
// correct, attempted, failed and metrics, so a one-workload run ends
// with its result. Exit codes: 0 ok, 1 a correctness check failed,
// 2 bad usage or environment, 3 two sets disagreed by more than a
// metric's bound in BENCHMARK.json.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc/factory.hpp"
#include "core/rng.hpp"
#include "core/timing.hpp"
#include "ds/queue.hpp"
#include "ds/set.hpp"
#include "harness/workload.hpp"
#include "histogram.hpp"
#include "smr/factory.hpp"
#include "timed_allocator.hpp"

extern char** environ;

namespace emrbench {
namespace {

using emr::now_ns;

// ------------------------------------------------------------ workloads

constexpr int kClients = 3;  // leaves one of 4 CPUs to the main thread
constexpr int kReps = 10;
constexpr std::uint64_t kRingOps = std::uint64_t{1} << 20;
constexpr std::uint64_t kRingMask = kRingOps - 1;
constexpr int kKindShift = 62;
constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKindShift) - 1;
constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kGarbagePeriodNs = 10 * kMs;
constexpr int kExtraSetupsPerRep = 10;

// Queue values carry their producer's tag above a per-producer sequence.
// Tags 0 and 1 are the producer clients, tag 2 the prefill.
constexpr int kTagShift = 48;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kTagShift) - 1;
constexpr int kTags = 3;
constexpr std::uint64_t kPrefillTag = 2;

enum Kind : int { kAdd = 0, kRemove = 1, kLookup = 2 };
constexpr int kKinds = 3;

struct Workload {
  const char* name;
  bool queue;
  const char* reclaimer;
  std::uint64_t keyrange;  // set workloads
  double insert_frac;
  double erase_frac;
  std::uint64_t penalty_pauses;  // remote-free cost; see penalty_ns()
  int producers;  // queue workload: clients [0, producers) enqueue
  std::uint64_t queue_cap;
};

// Why each workload exists is in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    // Whole 2048-leaf bags freed inside one op: the paper's pathology.
    {"abtree_batch", false, "debra", std::uint64_t{1} << 16, 0.5, 0.5, 11, 0, 0},
    // The same inputs with frees spread about one per op: the fix.
    {"abtree_af", false, "debra_af", std::uint64_t{1} << 16, 0.5, 0.5, 11, 0, 0},
    // Lookups over ~1.2 MB of leaves, within L2 like the other abtree
    // workloads (at 2^19 keys and ~5 MB it swung with the host's shared
    // cache traffic); frees are under 5% of the time.
    {"abtree_readmostly", false, "debra", std::uint64_t{1} << 17, 0.05, 0.05, 11, 0, 0},
    // Every free is remote, routed home through the stashes.
    {"queue_pipeline", true, "hp_af_hf", 0, 0.0, 0.0, 37, 2, 4096},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The allocator model burns its remote-free penalty as ns * pause_rate()
// pause instructions, with the rate measured once per process. That
// measurement read from 0.043 to 0.083 pauses/ns between processes on
// one machine, which moved the penalty, and the tails it sets, by up to
// 1.9x. So each workload fixes the count of pauses (11 and 37 are 150
// and 500 ns at the usual 0.073 pauses/ns) and converts it to the ns
// that buy exactly that count in this process.
std::uint64_t penalty_ns(const Workload& w) {
  const double rate = emr::timing::pause_rate();
  if (!(rate > 0)) throw std::runtime_error("pause loop not calibrated");
  return static_cast<std::uint64_t>(
      std::ceil((static_cast<double>(w.penalty_pauses) + 0.5) / rate));
}

// Every knob is written out, so no library default or environment
// variable can change what a workload runs.
emr::smr::SmrConfig smr_config(const Workload& w) {
  emr::smr::SmrConfig s;
  s.num_threads = kClients;
  s.extra_slots = 2;  // prefill / sweep / teardown handles
  s.batch_size = 2048;
  s.af_drain_per_op = 1;
  s.hp_slots = 8;
  s.epoch_freq = 64;
  s.schedule = "fixed";
  s.pool_cap = 0;
  s.drain_min = 1;
  s.drain_max = 64;
  s.latency_target_us = 1000;
  s.flush_batch = 64;
  s.home_flush = w.queue ? "on" : "off";
  s.tenants = 1;
  return s;
}

emr::alloc::AllocConfig alloc_config(const Workload& w,
                                     const emr::smr::SmrConfig& s) {
  emr::alloc::AllocConfig a;
  a.max_threads = static_cast<int>(s.slot_capacity());
  a.tcache_cap = 128;
  a.flush_fraction = 0.5;
  a.remote_free_penalty_ns = penalty_ns(w);
  a.remote_penalty_explicit = true;
  a.deferred_flush = false;
  return a;
}

const char* op_name(const Workload& w, int kind) {
  static const char* const kSet[kKinds] = {"insert", "erase", "lookup"};
  static const char* const kQueue[kKinds] = {"enqueue", "dequeue", "?"};
  return w.queue ? kQueue[kind] : kSet[kind];
}

std::string roles(const Workload& w) {
  return w.queue ? std::to_string(w.producers) + " producers + " +
                       std::to_string(kClients - w.producers) + " consumer"
                 : std::to_string(kClients) + " symmetric clients";
}

// --------------------------------------------------------------- inputs

struct Inputs {
  std::vector<std::vector<std::uint64_t>> rings;  // per client: kind|key
  std::vector<std::uint64_t> prefill;             // shuffled even keys
  std::uint64_t seq_base[kTags] = {};             // queue sequence starts
};

// Everything a run feeds the structures is a function of the seed.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  if (w.queue) {
    for (int t = 0; t < kTags; ++t) {
      emr::Rng rng(seed ^ (0xA0761D6478BD642FULL * static_cast<std::uint64_t>(t + 1)));
      in.seq_base[t] = rng.next_u64() & ((std::uint64_t{1} << 40) - 1);
    }
    return in;
  }
  for (int c = 0; c < kClients; ++c) {
    emr::harness::OpStream ops(seed, c, w.insert_frac, w.erase_frac,
                               w.keyrange);
    std::vector<std::uint64_t> ring(kRingOps);
    for (std::uint64_t& slot : ring) {
      const emr::harness::Op op = ops.next();
      slot = (static_cast<std::uint64_t>(op.kind) << kKindShift) | op.key;
    }
    in.rings.push_back(std::move(ring));
  }
  for (std::uint64_t k = 0; k < w.keyrange; k += 2) in.prefill.push_back(k);
  emr::Rng rng(seed ^ 0xC3A5C85C97CB3127ULL);
  for (std::size_t i = in.prefill.size(); i > 1; --i) {
    std::swap(in.prefill[i - 1], in.prefill[rng.next_range(i)]);
  }
  return in;
}

// ---------------------------------------------------------- the stack

struct Stack {
  std::unique_ptr<emr::alloc::Allocator> alloc;
  TimedAllocator* timed = nullptr;  // alloc.get() in a traced rep
  emr::smr::ReclaimerBundle bundle;
  // Declared after the bundle: the structures return their nodes
  // through the reclaimer on destruction.
  std::unique_ptr<emr::ds::ConcurrentSet> set;
  std::unique_ptr<emr::ds::ConcurrentQueue> queue;

  emr::smr::Reclaimer& r() { return *bundle.reclaimer; }
  std::size_t node_size() const {
    return set ? set->node_size() : queue->node_size();
  }
};

Stack build_stack(const Workload& w, bool traced) {
  const emr::smr::SmrConfig scfg = smr_config(w);
  Stack s;
  s.alloc = emr::alloc::make_allocator("je_model", alloc_config(w, scfg));
  if (traced) {
    auto t = std::make_unique<TimedAllocator>(
        std::move(s.alloc), static_cast<int>(scfg.slot_capacity()));
    s.timed = t.get();
    s.alloc = std::move(t);
  }
  emr::smr::SmrContext ctx;
  ctx.allocator = s.alloc.get();
  s.bundle = emr::smr::make_reclaimer(w.reclaimer, ctx, scfg);
  if (w.queue) {
    emr::ds::QueueConfig q;
    q.capacity = w.queue_cap;
    q.num_threads = kClients;
    s.queue = emr::ds::make_queue("msqueue", q, &s.r());
  } else {
    emr::ds::SetConfig d;
    d.keyrange = w.keyrange;
    d.num_threads = kClients;
    s.set = emr::ds::make_set("abtree", d, &s.r());
  }
  return s;
}

// ------------------------------------------------------- client loops

struct Outcome {
  int kind;
  bool ok;         // the structure call succeeded
  bool completed;  // counts as work done (a refused enqueue does not)
};

// One span kept for trace-<workload>.jsonl.
struct SpanRecord {
  int lane = 0;
  std::uint64_t seq = 0;
  Outcome outcome{};
  std::uint64_t t0 = 0;
  std::uint64_t dur = 0;
  bool slow = false;
  Span span;
};

// Uniform sample of a stream of spans in fixed memory (reservoir
// sampling), so spans come from the whole window, not only its start.
class Reservoir {
 public:
  static constexpr std::size_t kCap = 2048;

  void offer(const SpanRecord& r) {
    ++seen_;
    if (kept_.size() < kCap) {
      kept_.push_back(r);
      return;
    }
    const std::uint64_t j = rng_.next_range(seen_);
    if (j < kCap) kept_[static_cast<std::size_t>(j)] = r;
  }
  const std::vector<SpanRecord>& kept() const { return kept_; }

 private:
  std::vector<SpanRecord> kept_;
  std::uint64_t seen_ = 0;
  emr::Rng rng_{0x5DEECE66DULL};
};

// Per-client results of a traced rep.
struct ClientTrace {
  Histogram by_kind[kKinds];  // completed ops, span duration
  Histogram all;
  Histogram op_frees;  // allocator frees inside each span
  std::uint64_t spans = 0;
  std::uint64_t span_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t n_alloc = 0;
  std::uint64_t alloc_ns = 0;
  std::uint64_t n_free = 0;
  std::uint64_t free_ns = 0;
  Reservoir sampled;  // every 256th op
  Reservoir slow;     // ops slower than the untraced p99.9

  void record(const Outcome& o, int lane, std::uint64_t seq, std::uint64_t t0,
              std::uint64_t t1, const Span& s, std::uint64_t slow_ns) {
    const std::uint64_t dur = t1 - t0;
    ++spans;
    span_ns += dur;
    self_ns += dur > s.child_ns() ? dur - s.child_ns() : 0;
    n_alloc += s.n_alloc;
    alloc_ns += s.alloc_ns;
    n_free += s.n_free;
    free_ns += s.free_ns;
    op_frees.record(s.n_free);
    if (o.completed) {
      by_kind[o.kind].record(dur);
      all.record(dur);
    }
    const bool is_slow = dur > slow_ns;
    if ((seq & 255) == 0 || is_slow) {
      SpanRecord r;
      r.lane = lane;
      r.seq = seq;
      r.outcome = o;
      r.t0 = t0;
      r.dur = dur;
      r.slow = is_slow;
      r.span = s;
      (is_slow ? slow : sampled).offer(r);
    }
  }

  void merge(const ClientTrace& o) {
    for (int k = 0; k < kKinds; ++k) by_kind[k].merge(o.by_kind[k]);
    all.merge(o.all);
    op_frees.merge(o.op_frees);
    spans += o.spans;
    span_ns += o.span_ns;
    self_ns += o.self_ns;
    n_alloc += o.n_alloc;
    alloc_ns += o.alloc_ns;
    n_free += o.n_free;
    free_ns += o.free_ns;
  }
};

struct Client {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t tried[kKinds] = {};
  std::uint64_t succeeded[kKinds] = {};
  Histogram lat;                       // untraced: every 4th completed op
  std::unique_ptr<ClientTrace> trace;  // traced reps only

  void tally(const Outcome& o) {
    ++attempted;
    completed += o.completed ? 1 : 0;
    ++tried[o.kind];
    succeeded[o.kind] += o.ok ? 1 : 0;
  }
};

// A closed loop: the client issues its next op when the last returns.
// Untraced, every 4th op is timed; traced, every op is a span and the
// allocator calls inside it are its children.
template <class Target>
void closed_loop(Target& target, Client& c, const std::atomic<bool>& stop,
                 TimedAllocator* timed, int lane, std::uint64_t slow_ns) {
  if (timed == nullptr) {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      Outcome o;
      if ((i & 3) == 0) {
        const std::uint64_t t0 = now_ns();
        o = target.run_op(i);
        const std::uint64_t t1 = now_ns();
        if (o.completed) c.lat.record(t1 - t0);
      } else {
        o = target.run_op(i);
      }
      c.tally(o);
      // Backpressure (full or empty queue) costs a yield, not a spin.
      if (!o.completed) std::this_thread::yield();
    }
    return;
  }
  ClientTrace& tr = *c.trace;
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    timed->open_span(lane);
    const std::uint64_t t0 = now_ns();
    const Outcome o = target.run_op(i);
    const std::uint64_t t1 = now_ns();
    tr.record(o, lane, i, t0, t1, timed->close_span(lane), slow_ns);
    c.tally(o);
    if (!o.completed) std::this_thread::yield();
  }
}

struct SetTarget {
  emr::ds::ConcurrentSet& set;
  emr::smr::ThreadHandle& h;
  const std::uint64_t* ring;

  Outcome run_op(std::uint64_t i) {
    const std::uint64_t op = ring[i & kRingMask];
    const int kind = static_cast<int>(op >> kKindShift);
    const std::uint64_t key = op & kKeyMask;
    const bool ok = kind == kAdd      ? set.insert(h, key)
                    : kind == kRemove ? set.erase(h, key)
                                      : set.contains(h, key);
    return {kind, ok, true};
  }
};

// The loop over a target that does nothing but read its input: the
// benchmark's own cost per op.
struct NoopTarget {
  const std::uint64_t* ring;

  Outcome run_op(std::uint64_t i) {
    const std::uint64_t op = ring[i & kRingMask];
    return {static_cast<int>(op >> kKindShift), (op & 1) != 0, true};
  }
};

struct ProducerTarget {
  emr::ds::ConcurrentQueue& q;
  emr::smr::ThreadHandle& h;
  std::uint64_t tag;
  std::uint64_t seq;

  Outcome run_op(std::uint64_t) {
    const bool ok = q.enqueue(h, (tag << kTagShift) | seq);
    if (ok) ++seq;
    return {kAdd, ok, ok};
  }
};

// FIFO per producer: each tag's sequence must strictly increase.
struct SeqChecker {
  std::uint64_t last[kTags] = {};
  bool seen[kTags] = {};
  std::uint64_t violations = 0;

  void check(std::uint64_t v) {
    const std::uint64_t tag = v >> kTagShift;
    const std::uint64_t s = v & kSeqMask;
    if (tag >= kTags) {
      ++violations;
      return;
    }
    if (seen[tag] && s <= last[tag]) ++violations;
    seen[tag] = true;
    last[tag] = s;
  }
};

struct ConsumerTarget {
  emr::ds::ConcurrentQueue& q;
  emr::smr::ThreadHandle& h;
  SeqChecker& checker;

  Outcome run_op(std::uint64_t) {
    std::uint64_t v = 0;
    const bool ok = q.dequeue(h, &v);
    if (ok) checker.check(v);
    return {kRemove, ok, ok};
  }
};

// ---------------------------------------------------------------- reps

struct RepResult {
  double setup_s = 0;
  double prefill_ns_per_insert = 0;
  std::uint64_t window_t0 = 0;
  double wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t tried[kKinds] = {};
  std::uint64_t succeeded[kKinds] = {};
  Histogram lat;
  double garbage_mib_mean = 0;
  std::uint64_t garbage_max = 0;  // nodes
  std::uint64_t violations = 0;
  std::uint64_t epochs = 0;
  std::uint64_t stash_flushed = 0;
  emr::alloc::AllocTotals alloc;  // delta over the window
  std::unique_ptr<ClientTrace> trace;
  std::vector<SpanRecord> spans;  // traced reps: sampled + slow

  double mops() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s / 1e6 : 0.0;
  }
};

emr::alloc::AllocTotals minus(const emr::alloc::AllocTotals& a,
                              const emr::alloc::AllocTotals& b) {
  emr::alloc::AllocTotals d;
  d.n_alloc = a.n_alloc - b.n_alloc;
  d.n_free = a.n_free - b.n_free;
  d.n_remote_free = a.n_remote_free - b.n_remote_free;
  d.n_flush = a.n_flush - b.n_flush;
  d.ns_in_free = a.ns_in_free - b.ns_in_free;
  d.ns_in_flush = a.ns_in_flush - b.ns_in_flush;
  d.ns_in_lock = a.ns_in_lock - b.ns_in_lock;
  return d;
}

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

struct Setup {
  Stack st;
  std::uint64_t prefilled = 0;
  double seconds = 0;
  double prefill_ns_per_insert = 0;
};

// What setup_s times: a fresh allocator, reclaimer and structure, and
// the prefill (half the key range, or half the queue's capacity).
Setup set_up(const Workload& w, const Inputs& in, bool traced) {
  const std::uint64_t s0 = now_ns();
  Setup s{build_stack(w, traced)};
  const std::uint64_t p0 = now_ns();
  {
    emr::smr::ThreadHandle h = s.st.r().register_thread();
    if (w.queue) {
      for (std::uint64_t i = 0; i < w.queue_cap / 2; ++i) {
        const std::uint64_t v =
            (kPrefillTag << kTagShift) | (in.seq_base[kPrefillTag] + i);
        s.prefilled += s.st.queue->enqueue(h, v) ? 1 : 0;
      }
    } else {
      for (std::uint64_t k : in.prefill) s.prefilled += s.st.set->insert(h, k) ? 1 : 0;
    }
  }
  const std::uint64_t s1 = now_ns();
  s.seconds = static_cast<double>(s1 - s0) / 1e9;
  s.prefill_ns_per_insert =
      s.prefilled > 0 ? static_cast<double>(s1 - p0) / static_cast<double>(s.prefilled)
                      : 0.0;
  return s;
}

// One rep: set-up, the measured window, then the correctness checks and
// the teardown ledger, both outside the window. `slow_ns` marks spans
// kept as slow in a traced rep.
RepResult run_rep(const Workload& w, const Inputs& in, std::uint64_t window_ns,
                  bool traced, std::uint64_t slow_ns) {
  RepResult res;
  Setup setup = set_up(w, in, traced);
  Stack& st = setup.st;
  const std::uint64_t prefilled = setup.prefilled;
  res.setup_s = setup.seconds;
  res.prefill_ns_per_insert = setup.prefill_ns_per_insert;

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>());
    if (traced) clients.back()->trace = std::make_unique<ClientTrace>();
  }
  SeqChecker checker;  // the consumer's, read again by the final drain
  std::uint64_t producer_seq[kTags] = {};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  auto client_fn = [&](int c) {
    emr::smr::ThreadHandle h = st.r().register_thread();
    const int lane = h.slot();
    Client& cl = *clients[static_cast<std::size_t>(c)];
    ready.fetch_add(1, std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (!w.queue) {
      SetTarget t{*st.set, h, in.rings[static_cast<std::size_t>(c)].data()};
      closed_loop(t, cl, stop, st.timed, lane, slow_ns);
    } else if (c < w.producers) {
      ProducerTarget t{*st.queue, h, static_cast<std::uint64_t>(c),
                       in.seq_base[c]};
      closed_loop(t, cl, stop, st.timed, lane, slow_ns);
      producer_seq[c] = t.seq;
    } else {
      ConsumerTarget t{*st.queue, h, checker};
      closed_loop(t, cl, stop, st.timed, lane, slow_ns);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_fn, c);
  while (ready.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  // Allocator counters are plain per-lane fields: read them only while
  // no client is inside the allocator (before go, after the join).
  const emr::alloc::AllocTotals alloc0 = st.alloc->stats().totals;
  const emr::smr::SmrStats smr0 = st.r().stats();
  const std::uint64_t flushed0 = st.r().executor().total_flushed();

  const std::uint64_t t0 = now_ns();
  res.window_t0 = t0;
  go.store(true, std::memory_order_release);
  double garbage_sum = 0;
  std::uint64_t samples = 0;
  const std::size_t node = st.node_size();
  for (std::uint64_t next = t0 + kGarbagePeriodNs;; next += kGarbagePeriodNs) {
    const std::uint64_t now = now_ns();
    const std::uint64_t until = std::min(next, t0 + window_ns);
    if (until > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    }
    if (next > t0 + window_ns) break;
    const emr::smr::SmrStats s = st.r().stats();
    const std::uint64_t pending = s.retired > s.freed ? s.retired - s.freed : 0;
    garbage_sum += static_cast<double>(pending * node) / (1024.0 * 1024.0);
    res.garbage_max = std::max(res.garbage_max, pending);
    ++samples;
  }
  stop.store(true, std::memory_order_relaxed);
  const std::uint64_t t1 = now_ns();
  for (std::thread& t : threads) t.join();
  res.wall_s = static_cast<double>(t1 - t0) / 1e9;
  res.garbage_mib_mean = samples > 0 ? garbage_sum / static_cast<double>(samples) : 0;
  res.alloc = minus(st.alloc->stats().totals, alloc0);
  res.epochs = st.r().stats().epochs_advanced - smr0.epochs_advanced;
  res.stash_flushed = st.r().executor().total_flushed() - flushed0;

  for (const auto& cl : clients) {
    res.attempted += cl->attempted;
    res.completed += cl->completed;
    for (int k = 0; k < kKinds; ++k) {
      res.tried[k] += cl->tried[k];
      res.succeeded[k] += cl->succeeded[k];
    }
    res.lat.merge(cl->lat);
    if (traced) {
      if (!res.trace) res.trace = std::make_unique<ClientTrace>();
      res.trace->merge(*cl->trace);
      for (const Reservoir* r : {&cl->trace->sampled, &cl->trace->slow}) {
        res.spans.insert(res.spans.end(), r->kept().begin(), r->kept().end());
      }
    }
  }

  // Correctness, single-threaded and outside the window.
  {
    emr::smr::ThreadHandle h = st.r().register_thread();
    if (w.queue) {
      std::uint64_t drained = 0;
      std::uint64_t v = 0;
      while (st.queue->dequeue(h, &v)) {
        checker.check(v);
        ++drained;
      }
      std::uint64_t enqueued = prefilled;
      for (int p = 0; p < w.producers; ++p) {
        enqueued += producer_seq[p] - in.seq_base[p];
      }
      res.violations += checker.violations;
      res.violations += absdiff(enqueued, res.succeeded[kRemove] + drained);
    } else {
      std::uint64_t present = 0;
      for (std::uint64_t k = 0; k < w.keyrange; ++k) {
        present += st.set->contains(h, k) ? 1 : 0;
      }
      const std::uint64_t expected =
          prefilled + res.succeeded[kAdd] - res.succeeded[kRemove];
      res.violations += absdiff(present, expected);
    }
  }

  // Teardown ledger: every retired node freed (pending == 0), every
  // stashed block flushed, every allocated block returned.
  st.set.reset();
  st.queue.reset();
  st.r().flush_all();
  const emr::smr::SmrStats end = st.r().stats();
  const emr::smr::FreeExecutor& ex = st.r().executor();
  res.violations += absdiff(end.retired, end.freed);
  res.violations += absdiff(ex.total_stashed(), ex.total_flushed());
  res.violations += ex.total_stash_backlog();
  const emr::alloc::AllocTotals fin = st.alloc->stats().totals;
  res.violations += absdiff(fin.n_alloc, fin.n_free);
  return res;
}

// -------------------------------------------------------------- probes

void* load_ptr(const void* src) {
  return static_cast<const std::atomic<void*>*>(src)->load(
      std::memory_order_acquire);
}

struct Probes {
  double guard_ns = 0;
  double protect_ns = 0;
  double retire_ns = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Single-threaded costs on a fresh bundle of the workload's reclaimer:
// a begin_op/end_op bracket, one protect(), and one alloc_node+retire
// (64 per bracket, so the frees they trigger are included). Median of 5.
Probes probe_smr(const Workload& w) {
  constexpr int kN = 1 << 18;
  constexpr int kPerOp = 64;
  std::vector<double> guard, protect, retire;
  for (int rep = 0; rep < 5; ++rep) {
    const emr::smr::SmrConfig scfg = smr_config(w);
    auto alloc = emr::alloc::make_allocator("je_model", alloc_config(w, scfg));
    emr::smr::SmrContext ctx;
    ctx.allocator = alloc.get();
    emr::smr::ReclaimerBundle b = emr::smr::make_reclaimer(w.reclaimer, ctx, scfg);
    emr::smr::Reclaimer& r = *b.reclaimer;
    const std::size_t node = w.queue ? emr::ds::node_size_for_queue("msqueue")
                                     : emr::ds::node_size_for_ds("abtree");
    {
      emr::smr::ThreadHandle h = r.register_thread();
      std::uint64_t t0 = now_ns();
      for (int i = 0; i < kN; ++i) {
        r.begin_op(h);
        r.end_op(h);
      }
      guard.push_back(static_cast<double>(now_ns() - t0) / kN);

      int target = 0;
      std::atomic<void*> src{&target};
      r.begin_op(h);
      t0 = now_ns();
      for (int i = 0; i < kN; ++i) r.protect(h, i & 1, &load_ptr, &src);
      protect.push_back(static_cast<double>(now_ns() - t0) / kN);
      r.end_op(h);

      t0 = now_ns();
      for (int i = 0; i < kN / kPerOp; ++i) {
        r.begin_op(h);
        for (int j = 0; j < kPerOp; ++j) r.retire(h, r.alloc_node(h, node));
        r.end_op(h);
      }
      retire.push_back(static_cast<double>(now_ns() - t0) / kN);
    }
    r.flush_all();
  }
  return {median(guard), median(protect), median(retire)};
}

// The client loop over NoopTarget for 200 ms on one thread: what the
// benchmark itself costs per op. Median of 3.
double loop_ns_per_op(const Inputs& in) {
  std::vector<std::uint64_t> fallback;
  const std::uint64_t* ring = nullptr;
  if (in.rings.empty()) {
    fallback.assign(kRingOps, 0);
    ring = fallback.data();
  } else {
    ring = in.rings[0].data();
  }
  std::vector<double> v;
  for (int rep = 0; rep < 3; ++rep) {
    Client c;
    std::atomic<bool> stop{false};
    std::uint64_t t0 = 0, t1 = 0;
    std::thread t([&] {
      NoopTarget target{ring};
      t0 = now_ns();
      closed_loop(target, c, stop, nullptr, 0, 0);
      t1 = now_ns();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true, std::memory_order_relaxed);
    t.join();
    v.push_back(static_cast<double>(t1 - t0) /
                static_cast<double>(std::max<std::uint64_t>(c.attempted, 1)));
  }
  return median(v);
}

// ------------------------------------------------------------- metrics

// Directions and bounds live in BENCHMARK.json only.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_mops", "Mops/s"},
    {"latency_p50_us", "us"},
    {"latency_p9999_us", "us"},
    {"garbage_mib_mean", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"alloc.allocate.per_op", "1/op"},
    {"alloc.allocate.ns_mean", "ns"},
    {"alloc.free.per_op", "1/op"},
    {"alloc.free.ns_mean", "ns"},
    {"alloc.free.busy_share", "ratio"},
    {"alloc.flush.per_kfree", "1/kfree"},
    {"alloc.flush.busy_share", "ratio"},
    {"alloc.lock.wait_share", "ratio"},
    {"alloc.remote_share", "ratio"},
    {"smr.op_frees_p9999", "count"},
    {"smr.op_frees_max", "count"},
    {"smr.garbage_max", "nodes"},
    {"smr.epochs_per_s", "1/s"},
    {"smr.stash.flushed_per_op", "1/op"},
    {"smr.guard_ns", "ns"},
    {"smr.protect_ns", "ns"},
    {"smr.retire_ns", "ns"},
    {"ds.add.ns_p50", "ns"},
    {"ds.add.ns_p9999", "ns"},
    {"ds.remove.ns_p50", "ns"},
    {"ds.remove.ns_p9999", "ns"},
    {"ds.op.ns_p50", "ns"},
    {"ds.op.ns_p9999", "ns"},
    {"ds.self_ns_mean", "ns"},
    {"ds.add.success_share", "ratio"},
    {"ds.remove.success_share", "ratio"},
    {"ds.prefill.ns_per_insert", "ns"},
    {"driver.ns_per_op", "ns"},
    {"trace.overhead_share", "ratio"},
};

struct Stat {
  double value = 0;  // what the metric reports
  double min = 0;
  double med = 0;
  double max = 0;
  std::vector<double> reps;
};

Stat over_reps(const std::vector<double>& v, double value) {
  Stat s;
  s.value = value;
  s.reps = v;
  s.med = median(v);
  s.min = v.empty() ? 0 : *std::min_element(v.begin(), v.end());
  s.max = v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const RepResult& r) {
    attempted += r.attempted;
    failed += r.violations;
  }
};

struct EndToEnd {
  std::map<std::string, Stat> metrics;
  std::uint64_t latency_samples = 0;
  double failed_share = 0;
};

// Set from --seconds (or --quick) in run_main.
struct Plan {
  int reps = kReps;
  std::uint64_t rep_ns = 0;
  std::uint64_t warmup_ns = 0;
};

// One discarded warm-up rep, then the measured reps. Throughput,
// garbage and each latency percentile are medians over the reps (a
// burst of host interference inflates one rep's tail, which would
// carry into a percentile of the reps' samples pooled); set-up time is
// the fastest set-up of the run.
EndToEnd run_end_to_end(const Workload& w, const Inputs& in, const Plan& plan,
                        Ledger& ledger) {
  ledger.add(run_rep(w, in, plan.warmup_ns, false, 0));
  std::vector<RepResult> reps;
  std::vector<double> setup;
  for (int i = 0; i < plan.reps; ++i) {
    reps.push_back(run_rep(w, in, plan.rep_ns, false, 0));
    ledger.add(reps.back());
    setup.push_back(reps.back().setup_s);
    // Set-up takes milliseconds on one thread, and for stretches of
    // ~0.1-1 s it runs up to 1.5x slower (whichever vCPU the host is
    // crowding at the time), so its samples fall into two clusters and
    // their median jumps between them from run to run. Extra set-ups
    // (torn down without a window) after every rep, within a tenth of
    // the rep's length, spread ~60-110 samples over the run; the
    // fastest of them is the set-up cost with the least interference.
    const std::uint64_t t0 = now_ns();
    for (int k = 0; k < kExtraSetupsPerRep && now_ns() - t0 < plan.rep_ns / 10; ++k) {
      setup.push_back(set_up(w, in, false).seconds);
    }
  }
  EndToEnd e;
  std::vector<double> mops, garbage;
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    e.latency_samples += r.lat.count();
    mops.push_back(r.mops());
    garbage.push_back(r.garbage_mib_mean);
    attempted += r.attempted;
    failed += r.violations;
  }
  e.metrics["throughput_mops"] = over_reps(mops, median(mops));
  e.metrics["garbage_mib_mean"] = over_reps(garbage, median(garbage));
  e.metrics["setup_s"] =
      over_reps(setup, *std::min_element(setup.begin(), setup.end()));
  const std::pair<const char*, double> pcts[] = {
      {"latency_p50_us", 0.50}, {"latency_p9999_us", 0.9999}};
  for (const auto& [name, q] : pcts) {
    std::vector<double> per_rep;
    for (const RepResult& r : reps) per_rep.push_back(r.lat.quantile(q) / 1e3);
    e.metrics[name] = over_reps(per_rep, median(per_rep));
  }
  e.failed_share = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  return e;
}

// ------------------------------------------------------------- tracing

void write_trace(const Workload& w, const RepResult& r, const std::string& path) {
  std::vector<SpanRecord> spans = r.spans;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.t0 < b.t0; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "emr_bench: cannot write %s\n", path.c_str());
    return;
  }
  for (const SpanRecord& s : spans) {
    const Span& sp = s.span;
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"lane\":%d,\"seq\":%llu,\"op\":\"%s\","
                 "\"ok\":%s,\"kept\":\"%s\",\"start_ns\":%llu,\"dur_ns\":%llu,"
                 "\"self_ns\":%llu,\"allocs\":%u,\"alloc_ns\":%llu,"
                 "\"frees\":%u,\"free_ns\":%llu,\"children\":[",
                 w.name, s.lane, static_cast<unsigned long long>(s.seq),
                 op_name(w, s.outcome.kind), s.outcome.ok ? "true" : "false",
                 s.slow ? "slow" : "1in256",
                 static_cast<unsigned long long>(s.t0 - r.window_t0),
                 static_cast<unsigned long long>(s.dur),
                 static_cast<unsigned long long>(
                     s.dur > sp.child_ns() ? s.dur - sp.child_ns() : 0),
                 sp.n_alloc, static_cast<unsigned long long>(sp.alloc_ns),
                 sp.n_free, static_cast<unsigned long long>(sp.free_ns));
    for (std::uint32_t i = 0; i < sp.n_children; ++i) {
      const Child& c = sp.children[i];
      std::fprintf(f, "%s{\"call\":\"%s\",\"start_ns\":%llu,\"dur_ns\":%llu}",
                   i == 0 ? "" : ",", call_name(c.call),
                   static_cast<unsigned long long>(c.t0 - r.window_t0),
                   static_cast<unsigned long long>(c.dur));
    }
    std::fprintf(f, "],\"children_dropped\":%u}\n",
                 sp.n_alloc + sp.n_free - sp.n_children);
  }
  std::fclose(f);
}

// The traced run: a discarded warm-up, one untraced reference rep (its
// throughput and p99.9 anchor the overhead share and the slow-span
// threshold), then one traced rep that the per-layer metrics read.
std::map<std::string, double> run_traced(const Workload& w, const Inputs& in,
                                         const Plan& plan, std::uint64_t window_ns,
                                         const std::string& trace_path,
                                         Ledger& ledger) {
  ledger.add(run_rep(w, in, plan.warmup_ns, false, 0));
  const RepResult ref = run_rep(w, in, window_ns, false, 0);
  ledger.add(ref);
  const auto slow_ns = static_cast<std::uint64_t>(ref.lat.quantile(0.999));
  const RepResult r = run_rep(w, in, window_ns, true, slow_ns);
  ledger.add(r);
  write_trace(w, r, trace_path);

  const ClientTrace& t = *r.trace;
  const double ops = static_cast<double>(r.completed);
  const double thread_ns = kClients * r.wall_s * 1e9;
  const emr::alloc::AllocTotals& a = r.alloc;
  const Probes p = probe_smr(w);
  std::map<std::string, double> m;
  m["alloc.allocate.per_op"] = ratio(static_cast<double>(t.n_alloc), ops);
  m["alloc.allocate.ns_mean"] =
      ratio(static_cast<double>(t.alloc_ns), static_cast<double>(t.n_alloc));
  m["alloc.free.per_op"] = ratio(static_cast<double>(t.n_free), ops);
  m["alloc.free.ns_mean"] =
      ratio(static_cast<double>(t.free_ns), static_cast<double>(t.n_free));
  m["alloc.free.busy_share"] = ratio(static_cast<double>(t.free_ns), thread_ns);
  m["alloc.flush.per_kfree"] =
      ratio(1000.0 * static_cast<double>(a.n_flush), static_cast<double>(a.n_free));
  m["alloc.flush.busy_share"] = ratio(static_cast<double>(a.ns_in_flush), thread_ns);
  m["alloc.lock.wait_share"] = ratio(static_cast<double>(a.ns_in_lock), thread_ns);
  m["alloc.remote_share"] = ratio(static_cast<double>(a.n_remote_free),
                                  static_cast<double>(a.n_free));
  m["smr.op_frees_p9999"] = t.op_frees.quantile(0.9999);
  m["smr.op_frees_max"] = static_cast<double>(t.op_frees.max());
  m["smr.garbage_max"] = static_cast<double>(r.garbage_max);
  m["smr.epochs_per_s"] = ratio(static_cast<double>(r.epochs), r.wall_s);
  m["smr.stash.flushed_per_op"] = ratio(static_cast<double>(r.stash_flushed), ops);
  m["smr.guard_ns"] = p.guard_ns;
  m["smr.protect_ns"] = p.protect_ns;
  m["smr.retire_ns"] = p.retire_ns;
  m["ds.add.ns_p50"] = t.by_kind[kAdd].quantile(0.50);
  m["ds.add.ns_p9999"] = t.by_kind[kAdd].quantile(0.9999);
  m["ds.remove.ns_p50"] = t.by_kind[kRemove].quantile(0.50);
  m["ds.remove.ns_p9999"] = t.by_kind[kRemove].quantile(0.9999);
  m["ds.op.ns_p50"] = t.all.quantile(0.50);
  m["ds.op.ns_p9999"] = t.all.quantile(0.9999);
  m["ds.self_ns_mean"] =
      ratio(static_cast<double>(t.self_ns), static_cast<double>(t.spans));
  m["ds.add.success_share"] = ratio(static_cast<double>(r.succeeded[kAdd]),
                                    static_cast<double>(r.tried[kAdd]));
  m["ds.remove.success_share"] = ratio(static_cast<double>(r.succeeded[kRemove]),
                                       static_cast<double>(r.tried[kRemove]));
  m["ds.prefill.ns_per_insert"] =
      median({ref.prefill_ns_per_insert, r.prefill_ns_per_insert});
  m["driver.ns_per_op"] = loop_ns_per_op(in);
  m["trace.overhead_share"] = 1.0 - ratio(r.mops(), ref.mops());
  return m;
}

// ---------------------------------------------------------- reporting

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

void print_end_to_end(const Workload& w, const EndToEnd& e) {
  for (const MetricDef& d : kEndToEnd) {
    const Stat& s = e.metrics.at(d.name);
    std::printf("%s %s %s %s min=%s median=%s max=%s\n", w.name, d.name,
                fmt(s.value).c_str(), d.unit, fmt(s.min).c_str(),
                fmt(s.med).c_str(), fmt(s.max).c_str());
  }
  std::printf("%s latency_samples %llu count\n", w.name,
              static_cast<unsigned long long>(e.latency_samples));
  std::printf("%s failed_share %s ratio\n", w.name, fmt(e.failed_share).c_str());
}

void print_per_layer(const Workload& w, const std::map<std::string, double>& m) {
  for (const MetricDef& d : kPerLayer) {
    std::printf("%s %s %s %s\n", w.name, d.name, fmt(m.at(d.name)).c_str(),
                d.unit);
  }
}

std::string read_loadavg() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return "unknown";
  char buf[128] = {};
  const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
  std::fclose(f);
  if (!ok) return "unknown";
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
  int sets = -1;  // -1: 1 untraced set, or none when tracing
  std::string git_sha = "unknown";
};

struct Run {
  std::vector<std::map<const Workload*, EndToEnd>> sets;
  std::map<const Workload*, std::map<std::string, double>> traced;
  std::map<const Workload*, Ledger> ledgers;
};

// Output lands beside the sources, whatever the working directory.
const std::string kOutDir = EMRBENCH_DIR "/out";

void write_results(const Options& o, const Plan& plan, std::uint64_t traced_ns,
                   const std::string& loadavg, const Run& run) {
  const std::string path = kOutDir + "/results.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "emr_bench: cannot write %s\n", path.c_str());
    return;
  }
  Ledger total;
  for (const auto& [w, l] : run.ledgers) {
    total.attempted += l.attempted;
    total.failed += l.failed;
  }
  std::fprintf(f, "{\n  \"provenance\": {\n");
  std::fprintf(f, "    \"git_sha\": \"%s\",\n", json_escape(o.git_sha).c_str());
  std::fprintf(f, "    \"seed\": %llu,\n", static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "    \"nproc\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f, "    \"loadavg_start\": \"%s\",\n", json_escape(loadavg).c_str());
  std::fprintf(f, "    \"clock\": \"%s\",\n", emr::timing::clock_name());
  std::fprintf(f, "    \"tsc_ghz\": %s,\n", fmt(emr::timing::tsc_ghz()).c_str());
  std::fprintf(f, "    \"pause_per_ns\": %s,\n", fmt(emr::timing::pause_rate()).c_str());
  std::fprintf(f, "    \"allocator\": \"je_model\",\n");
  std::fprintf(f, "    \"client_threads\": %d,\n", kClients);
  std::fprintf(f, "    \"pinned\": false,\n");
  std::fprintf(f, "    \"reps\": %d,\n", plan.reps);
  std::fprintf(f, "    \"rep_s\": %s,\n", fmt(static_cast<double>(plan.rep_ns) / 1e9).c_str());
  std::fprintf(f, "    \"warmup_s\": %s,\n",
               fmt(static_cast<double>(plan.warmup_ns) / 1e9).c_str());
  std::fprintf(f, "    \"traced_rep_s\": %s,\n",
               fmt(static_cast<double>(traced_ns) / 1e9).c_str());
  std::fprintf(f, "    \"workloads\": {");
  for (std::size_t i = 0; i < o.workloads.size(); ++i) {
    const Workload& w = *o.workloads[i];
    std::fprintf(f,
                 "%s\n      \"%s\": {\"structure\": \"%s\", \"reclaimer\": "
                 "\"%s\", \"penalty_pauses\": %llu, \"penalty_ns\": %llu, "
                 "\"roles\": \"%s\", \"keyrange\": %llu, \"insert_frac\": %s, "
                 "\"erase_frac\": %s, \"queue_cap\": %llu}",
                 i == 0 ? "" : ",", w.name, w.queue ? "msqueue" : "abtree",
                 w.reclaimer, static_cast<unsigned long long>(w.penalty_pauses),
                 static_cast<unsigned long long>(penalty_ns(w)),
                 roles(w).c_str(), static_cast<unsigned long long>(w.keyrange),
                 fmt(w.insert_frac).c_str(), fmt(w.erase_frac).c_str(),
                 static_cast<unsigned long long>(w.queue_cap));
  }
  std::fprintf(f, "\n    }\n  },\n");
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(total.attempted),
               static_cast<unsigned long long>(total.failed));
  std::fprintf(f, "  \"sets\": [");
  for (std::size_t s = 0; s < run.sets.size(); ++s) {
    std::fprintf(f, "%s\n    {", s == 0 ? "" : ",");
    bool first_w = true;
    for (const Workload* w : o.workloads) {
      const EndToEnd& e = run.sets[s].at(w);
      std::fprintf(f, "%s\n      \"%s\": {", first_w ? "" : ",", w->name);
      first_w = false;
      for (const MetricDef& d : kEndToEnd) {
        const Stat& st = e.metrics.at(d.name);
        std::string reps;
        for (double v : st.reps) reps += (reps.empty() ? "" : ", ") + fmt(v);
        std::fprintf(f,
                     "\n        \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                     "\"min\": %s, \"median\": %s, \"max\": %s, \"reps\": [%s]},",
                     d.name, fmt(st.value).c_str(), d.unit, fmt(st.min).c_str(),
                     fmt(st.med).c_str(), fmt(st.max).c_str(), reps.c_str());
      }
      std::fprintf(f,
                   "\n        \"latency_samples\": %llu,\n"
                   "        \"failed_share\": %s\n      }",
                   static_cast<unsigned long long>(e.latency_samples),
                   fmt(e.failed_share).c_str());
    }
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "\n  ],\n  \"traced\": {");
  bool first_w = true;
  for (const Workload* w : o.workloads) {
    const auto it = run.traced.find(w);
    if (it == run.traced.end()) continue;
    std::fprintf(f, "%s\n    \"%s\": {", first_w ? "" : ",", w->name);
    first_w = false;
    bool first_m = true;
    for (const MetricDef& d : kPerLayer) {
      std::fprintf(f, "%s\n      \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   first_m ? "" : ",", d.name, fmt(it->second.at(d.name)).c_str(),
                   d.unit);
      first_m = false;
    }
    std::fprintf(f, "\n    }");
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

// Each end-to-end metric's "bound" in BENCHMARK.json, the one place the
// bounds are kept. The file is this repository's own, one metric object
// per line, so a scan for the name and the next "bound" key suffices.
std::map<std::string, double> read_bounds() {
  const std::string path = EMRBENCH_DIR "/../BENCHMARK.json";
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  std::map<std::string, double> bounds;
  for (const MetricDef& d : kEndToEnd) {
    const std::size_t at = s.find("\"name\": \"" + std::string(d.name) + "\"");
    const std::size_t end = s.find('}', at);
    const std::size_t key = s.find("\"bound\":", at);
    if (at == std::string::npos || key == std::string::npos || key > end) {
      throw std::runtime_error("no bound for " + std::string(d.name) + " in " + path);
    }
    bounds[d.name] = std::strtod(s.c_str() + key + 8, nullptr);
  }
  return bounds;
}

// Relative difference of every end-to-end metric between sets 1 and 2,
// next to its bound. Both sets run the same code, so a difference either
// way beyond the bound is a breach.
bool compare_sets(const Options& o, const Run& run) {
  const std::map<std::string, double> bounds = read_bounds();
  bool ok = true;
  std::printf("\nsets: relative difference between set 1 and set 2\n");
  for (const Workload* w : o.workloads) {
    for (const MetricDef& d : kEndToEnd) {
      const double a = run.sets[0].at(w).metrics.at(d.name).value;
      const double b = run.sets[1].at(w).metrics.at(d.name).value;
      const double rel = ratio(std::fabs(b - a), std::fabs(a));
      const double bound = bounds.at(d.name);
      const bool breach = rel > bound;
      ok = ok && !breach;
      std::printf("%s %s %s %s rel=%.4f bound=%.2f %s\n", w->name, d.name,
                  fmt(a).c_str(), fmt(b).c_str(), rel, bound,
                  breach ? "BREACH" : "ok");
    }
  }
  return ok;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "emr_bench: %s\nusage: emr_bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--quick] [--sets K] "
               "[--git-sha SHA]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run_main(int argc, char** argv) {
  // core/timing still reads EMR_TSC; a stray EMR_* knob must not change
  // what the benchmark measures.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EMR_", 4) == 0) {
      std::fprintf(stderr, "emr_bench: refusing to run with %s set\n", *e);
      return 2;
    }
  }
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--workload" && has_next) {
      const std::string name = argv[++i];
      if (name != "all") {
        const Workload* w = find_workload(name);
        if (w == nullptr) return usage(("unknown workload " + name).c_str());
        o.workloads.push_back(w);
      }
    } else if (a == "--seed" && has_next) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_next) {
      o.seconds = std::strtod(argv[++i], nullptr);
      if (!(o.seconds > 0 && o.seconds <= 600)) return usage("--seconds must be in (0, 600]");
    } else if (a == "--trace" && has_next) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--sets" && has_next) {
      o.sets = std::atoi(argv[++i]);
      if (o.sets < 0 || o.sets > 10) return usage("--sets must be in [0, 10]");
    } else if (a == "--git-sha" && has_next) {
      o.git_sha = argv[++i];
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (o.workloads.empty()) {
    for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
  }
  if (o.sets < 0) o.sets = o.trace ? 0 : 1;
  if (o.sets == 0 && !o.trace) return usage("nothing to run: --sets 0 with --trace 0");
  std::filesystem::create_directories(kOutDir);

  emr::timing::calibrate_clock();
  const std::string loadavg = read_loadavg();
  Plan plan;
  std::uint64_t traced_ns = 0;
  if (o.quick) {
    plan.reps = 1;
    plan.rep_ns = 200 * kMs;
    plan.warmup_ns = 100 * kMs;
    traced_ns = 200 * kMs;
  } else {
    const auto total_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
    plan.rep_ns = total_ns / kReps;
    plan.warmup_ns = std::min<std::uint64_t>(plan.rep_ns, 1000 * kMs);
    traced_ns = total_ns / 2;
  }
  std::printf("emr_bench seed=%llu clock=%s tsc_ghz=%.3f pause_per_ns=%.4f nproc=%ld "
              "loadavg=\"%s\" clients=%d reps=%d rep_s=%.3f\n",
              static_cast<unsigned long long>(o.seed), emr::timing::clock_name(),
              emr::timing::tsc_ghz(), emr::timing::pause_rate(),
              sysconf(_SC_NPROCESSORS_ONLN), loadavg.c_str(), kClients, plan.reps,
              static_cast<double>(plan.rep_ns) / 1e9);

  Run run;
  // Inputs are rebuilt per use (tens of ms) rather than held for every
  // workload at once (~25 MB each).
  for (int s = 0; s < o.sets; ++s) {
    run.sets.emplace_back();
    for (const Workload* w : o.workloads) {
      std::printf("# set %d workload %s: %s, %s, %s, penalty %llu pauses = %llu ns\n",
                  s + 1, w->name, w->queue ? "msqueue" : "abtree", w->reclaimer,
                  roles(*w).c_str(), static_cast<unsigned long long>(w->penalty_pauses),
                  static_cast<unsigned long long>(penalty_ns(*w)));
      const EndToEnd e =
          run_end_to_end(*w, make_inputs(*w, o.seed), plan, run.ledgers[w]);
      print_end_to_end(*w, e);
      std::fflush(stdout);
      run.sets.back()[w] = e;
    }
  }
  if (o.trace) {
    for (const Workload* w : o.workloads) {
      std::printf("# traced workload %s\n", w->name);
      const std::string path = kOutDir + "/trace-" + w->name + ".jsonl";
      run.traced[w] = run_traced(*w, make_inputs(*w, o.seed), plan, traced_ns, path,
                                 run.ledgers[w]);
      print_per_layer(*w, run.traced[w]);
      std::fflush(stdout);
    }
  }
  const bool sets_agree = run.sets.size() < 2 || compare_sets(o, run);
  write_results(o, plan, traced_ns, loadavg, run);

  // One result line per workload, last: the first set's end-to-end
  // metrics, the traced run's per-layer metrics, or both.
  bool correct = true;
  for (const Workload* w : o.workloads) {
    std::string metrics;
    auto add_metric = [&](const char* name, double v, const char* unit) {
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + std::string(name) + "\": {\"value\": " + fmt(v) +
                 ", \"unit\": \"" + unit + "\"}";
    };
    if (!run.sets.empty()) {
      for (const MetricDef& d : kEndToEnd) {
        add_metric(d.name, run.sets[0].at(w).metrics.at(d.name).value, d.unit);
      }
    }
    if (o.trace) {
      for (const MetricDef& d : kPerLayer) {
        add_metric(d.name, run.traced.at(w).at(d.name), d.unit);
      }
    }
    const Ledger& l = run.ledgers.at(w);
    correct = correct && l.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                l.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(l.attempted, 1)),
                static_cast<unsigned long long>(l.failed), metrics.c_str());
  }
  if (!correct) return 1;
  return sets_agree ? 0 : 3;
}

}  // namespace
}  // namespace emrbench

int main(int argc, char** argv) {
  try {
    return emrbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emr_bench: %s\n", e.what());
    return 2;
  }
}
