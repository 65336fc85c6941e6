// One reverse-traceroute measurement as a resumable staged state machine.
//
// RequestTask is the engine's Fig 2 control flow unrolled into explicit
// stages (atlas-intersect → rr-cache-replay → rr-direct → ingress-discovery →
// rr-spoof-batches → dbr-verify → timestamp → symmetry, mirroring the
// TraceStage span names). Every point where the blocking engine used to call
// the Prober is now a suspension point: advance() runs pure transitions until
// the task either finishes or yields a *probe demand set* (sched::ProbeDemand,
// wire probes only), and supply() feeds the resolved outcomes back in demand
// order to resume it. The one offline step, the on-demand ingress survey of
// a prefix with no plan, runs inside the task on the discovery prober; its
// packets land in offline_probes, apart from the online budget.
//
// Two executors drive tasks:
//   * RevtrEngine::measure() — the blocking path — fulfills each demand set
//     inline via sched::execute_demand(), so blocking behaviour is the
//     staged machine run to completion with a trivial scheduler.
//   * RequestExecutor (below) multiplexes many tasks over a
//     sched::ProbeScheduler, which coalesces identical in-flight demands
//     across requests. The daemon's workers, campaign workers and
//     revtr_mc's twins all drive tasks through it.
// Because simulated probe outcomes are content-addressed (DESIGN.md §8), the
// two executors produce byte-identical ReverseTraceroutes — pinned by
// tests/concurrency_test.cpp and swept by revtr_mc (invariant I7).
//
// A task owns its request's clock, RNG stream, and optional trace for the
// whole measurement, so stage spans survive suspension: a span opened before
// a demand set closes after the outcomes arrive, however many pump rounds
// later that is. Probe cost is attributed from outcomes (issued packets
// only; coalesced outcomes cost the request nothing), keeping invariant I6's
// span-sum == online-probes contract intact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/revtr.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "vpselect/ingress.h"

namespace revtr::core {

class RequestTask {
 public:
  // `engine` supplies the collaborators and config; `clock`, `rng`, and
  // `trace` belong to this request and must outlive the task. Multiplexed
  // tasks must each get their own clock and RNG stream (the parallel driver
  // seeds per request from (campaign seed, index)).
  RequestTask(RevtrEngine& engine, topology::HostId destination,
              topology::HostId source, util::SimClock& clock, util::Rng& rng,
              obs::Trace* trace);

  RequestTask(const RequestTask&) = delete;
  RequestTask& operator=(const RequestTask&) = delete;

  // Runs the machine until it finishes or needs probes. Returns the demand
  // set to fulfill (empty iff done()). The span stays valid until the next
  // advance() call.
  std::span<const sched::ProbeDemand> advance();

  // Resumes with the outcomes of the last demand set, in demand order.
  void supply(std::span<const sched::ProbeOutcome> outcomes);

  bool done() const noexcept { return stage_ == Stage::kDone; }
  const ReverseTraceroute& result() const noexcept { return result_; }
  ReverseTraceroute take_result();

 private:
  // The legal transitions are declared next to each enumerator and
  // enforced by revtr_lint's stage-graph pass against every `stage_ =`
  // assignment reachable from the stage's handler; its stage-span pass
  // additionally proves every open_stage has a close_stage on all paths.
  enum class Stage : std::uint8_t {
    // Source check, atlas intersect, RR cache/direct.
    // lint: stage(kLoopHead -> kLoopHead, kRrDirectWait, kAfterRr, kDone)
    kLoopHead,
    // A miss may run the on-demand ingress survey inline (offline).
    // lint: stage(kRrDirectWait -> kLoopHead, kAfterRr, kSpoofEmit)
    kRrDirectWait,
    // Build the next spoofed-RR batch.
    // lint: stage(kSpoofEmit -> kSpoofEmit, kSpoofBatchWait, kAfterRr)
    kSpoofEmit,
    // lint: stage(kSpoofBatchWait -> kSpoofEmit, kDbrEmit, kLoopHead)
    kSpoofBatchWait,
    // Appx E redundancy check.
    // lint: stage(kDbrEmit -> kDbrVerifyWait)
    kDbrEmit,
    // lint: stage(kDbrVerifyWait -> kLoopHead, kSpoofEmit)
    kDbrVerifyWait,
    // RR exhausted: timestamp technique or skip.
    // lint: stage(kAfterRr -> kTsNext, kSymmetryEmit)
    kAfterRr,
    // Pick the next TS adjacency candidate.
    // lint: stage(kTsNext -> kTsDirectWait, kSymmetryEmit)
    kTsNext,
    // lint: stage(kTsDirectWait -> kTsSpoofEmit, kLoopHead, kTsNext)
    kTsDirectWait,
    // Direct TS filtered: spoofed retry.
    // lint: stage(kTsSpoofEmit -> kTsSpoofWait)
    kTsSpoofEmit,
    // lint: stage(kTsSpoofWait -> kLoopHead, kTsNext)
    kTsSpoofWait,
    // Cache lookup or forward traceroute.
    // lint: stage(kSymmetryEmit -> kSymmetryWait, kLoopHead, kDone)
    kSymmetryEmit,
    // lint: stage(kSymmetryWait -> kLoopHead, kDone)
    kSymmetryWait,
    // lint: stage(kDone ->)
    kDone,
  };

  // Pure transitions (advance side).
  void step_loop_head();
  bool try_atlas();
  void begin_record_route();
  void begin_spoofed();
  void setup_attempts(const vpselect::PrefixPlan& plan);
  void step_spoof_emit();
  void step_dbr_emit();
  void step_after_rr();
  void step_ts_next();
  void step_ts_spoof_emit();
  void step_symmetry_emit();

  // Outcome consumers (supply side).
  void on_rr_direct(std::span<const sched::ProbeOutcome> outcomes);
  void on_spoof_batch(std::span<const sched::ProbeOutcome> outcomes);
  void on_dbr_verify(std::span<const sched::ProbeOutcome> outcomes);
  void on_ts_direct(std::span<const sched::ProbeOutcome> outcomes);
  void on_ts_spoofed(std::span<const sched::ProbeOutcome> outcomes);
  void on_symmetry(std::span<const sched::ProbeOutcome> outcomes);

  // Shared helpers (ported from the blocking engine unchanged).
  void evaluate_ts(const sched::ProbeOutcome& probe);
  void apply_symmetry(std::optional<net::Ipv4Addr> penultimate, bool reached);
  void finish_spoof_round();
  bool append_reverse_hops(std::span<const net::Ipv4Addr> revealed,
                           HopSource source);
  bool already_in_path(net::Ipv4Addr addr) const;
  // One RR reveal: appends it, records it as a round of this key's cache
  // entry, and stores the entry once a round makes progress.
  bool append_rr_round(std::span<const net::Ipv4Addr> revealed,
                       HopSource how);
  void finalize_flags();
  void finish();

  // Probe-cost accounting: issued packets charge the request and the open
  // stage span; coalesced outcomes count only coalesced_probes.
  void charge(const sched::ProbeDemand& demand,
              const sched::ProbeOutcome& outcome);

  // Stage span bookkeeping (explicit, not RAII — spans must survive
  // suspension between advance() and supply()).
  void open_stage(const char* name);
  void annotate_stage(const char* key, std::string value);
  void close_stage();

  const EngineConfig& config() const noexcept;
  const EngineMetrics* metrics() const noexcept;

  RevtrEngine& engine_;
  util::SimClock& clock_;
  util::Rng& rng_;
  obs::Trace* trace_;
  topology::HostId source_;

  Stage stage_ = Stage::kLoopHead;
  ReverseTraceroute result_;
  net::Ipv4Addr src_addr_;
  net::Ipv4Addr current_;
  std::vector<sched::ProbeDemand> demands_;
  std::vector<sched::ProbeDemand> consumed_;  // Last fulfilled demand set.

  // RR technique state.
  std::uint64_t rr_key_ = 0;
  std::vector<RrCacheEntry::Hop> rr_reveals_;  // This key's rounds so far.
  std::size_t next_attempt_ = 0;
  util::FlatMap<std::size_t, int> rank_failures_;

  // TS technique state.
  std::size_t ts_index_ = 0;
  std::size_t ts_tried_ = 0;
  net::Ipv4Addr ts_adjacent_;

  // Per-round scratch. Everything in here is dead by the time control
  // re-enters kLoopHead (the RR attempt list, the spoof batch, revealed hops
  // and TS candidates all live within one technique round), so
  // step_loop_head() clears them; clear() keeps their capacity for the next
  // round.
  std::vector<vpselect::Attempt> attempts_;
  std::vector<vpselect::Attempt> batch_attempts_;  // Parallel to demands_.
  std::vector<net::Ipv4Addr> revealed_;
  std::vector<net::Ipv4Addr> ts_candidates_;

  // Trace bookkeeping.
  obs::Trace::SpanId root_span_ = obs::Trace::kDroppedSpan;
  obs::Trace::SpanId stage_span_ = obs::Trace::kDroppedSpan;
  std::uint64_t stage_probes_ = 0;
};

// Drives one owner's tasks over a shared sched::ProbeScheduler: start →
// advance → submit, then collect → supply → advance → submit or finish.
// A driver loop keeps only its thread and calls round(); a thread that
// drives several owners pumps each and calls resume_ready() itself, since
// it cannot park on one owner while another owner's probe is still
// unclaimed. One executor per owner, used by one thread at a time.
class RequestExecutor {
 public:
  // Gets a finished request's result and the trace given to start(). Runs
  // exactly once per request: inside start() when the request needs no
  // probes (an atlas hit), otherwise inside resume_ready().
  using FinishHandler =
      std::function<void(ReverseTraceroute, std::optional<obs::Trace>)>;

  // `engine` and `scheduler` must outlive the executor; `owner` tags its
  // demand sets in the scheduler.
  RequestExecutor(RevtrEngine& engine, sched::ProbeScheduler& scheduler,
                  std::size_t owner);

  // Starts a request whose clock reads `start_us` and whose RNG stream is
  // seeded with `rng_seed`, and advances it to its first demand set.
  void start(topology::HostId destination, topology::HostId source,
             util::SimClock::Micros start_us, std::uint64_t rng_seed,
             std::optional<obs::Trace> trace, FinishHandler on_finish);

  // Resumes every request whose demand set resolved. Returns how many.
  std::size_t resume_ready();

  // One turn of a driver loop: claims and executes this owner's queued
  // demands on `prober`, resumes every request whose demand set resolved,
  // and, when neither moved anything, parks in the scheduler until a
  // delivery resolves one of its sets, it has a demand to claim, or
  // ProbeScheduler::wake() is called. Without a prober (remote agents
  // execute the demands) it claims nothing and its demands do not end the
  // wait. Returns how many requests it resumed.
  std::size_t round(probing::Prober* prober);

  // Requests started and not yet finished.
  std::size_t active() const noexcept { return active_.size(); }

 private:
  // A task holds references to its request's clock, RNG and trace for the
  // whole measurement; unordered_map keeps element addresses stable.
  struct Request {
    explicit Request(std::uint64_t rng_seed) : rng(rng_seed) {}
    util::SimClock clock;
    util::Rng rng;
    std::optional<obs::Trace> trace;
    std::unique_ptr<RequestTask> task;
    FinishHandler on_finish;
  };

  // Advances the request, then submits its next demand set or finishes it.
  void step(sched::ProbeScheduler::TaskId id, Request& request);

  RevtrEngine& engine_;
  sched::ProbeScheduler& scheduler_;
  const std::size_t owner_;
  sched::ProbeScheduler::TaskId next_id_ = 0;
  std::unordered_map<sched::ProbeScheduler::TaskId, Request> active_;
};

}  // namespace revtr::core
