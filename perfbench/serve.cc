// Workload `serve_hot`: open-loop Poisson traffic into QuantificationService
// over bench_load's full cube shape (200k workers, 2000 queries × 25
// locations, 5000 observed columns, exposure measure), built by
// MarketplaceCubeMaintainer::Make, with admission, a deadline and a stale
// budget on.
//
// Why serve_hot: Zipf traffic over bench_load's 256 request patterns with a
// cache four times the pattern count, while a writer applies 25-column
// re-crawl batches and flips the snapshot every 400 ms. The cache, cache-key,
// snapshot and incremental layers do most of the work; the engine runs only
// on misses and refreshes, and the writes beside the reads expose a gain for
// one side that costs the other.
//
// Rates are constants: never calibrated from the code under test, so a
// parent and a change always receive the same offered load.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/group_space.h"
#include "core/quantification.h"
#include "market/scale_gen.h"
#include "oracle.h"
#include "serve/cache_key.h"
#include "serve/cube_snapshot.h"
#include "serve/incremental.h"
#include "serve/quantification_service.h"
#include "span.h"

namespace fairbench {
namespace {

using namespace fairjob;  // NOLINT: the benchmark drives the whole library

// Set-up (and with it the maintainer's cold build, which audit_s reports
// here) runs five times per process: a one-second build swings by about 20%
// between set-ups seconds apart on a shared host, and the median of five
// steadies it (with three, audit_s's IQR/median over ten seeds reached
// 0.24 on a 4-vCPU host).
constexpr size_t kSetupRepeats = 5;
constexpr size_t kPatterns = 256;
constexpr size_t kBatchColumns = 25;
// Longer than one upsert at this shape at the seed (about 120 ms with two
// threads), so the offered write load is the same on every commit. A run
// holds about 45 upserts.
constexpr int64_t kWriterPeriodUs = 400'000;
// The deadline is on but generous: a refresh stall (a heavy pattern past its
// stale budget, about 150 ms, holding both load threads as leader and
// follower) delays requests rather than shedding them. A deadline shorter
// than a stall sheds a timing-dependent share of requests (0.3-1.2% at
// 50 ms), so two runs of one seed would fail different numbers of
// operations.
constexpr int64_t kDeadlineUs = 2'000'000;
constexpr int64_t kSpinNs = 200'000;
// Fixed rates (requests/s): the measured rate, then the slo_qps ladder, and
// the ladder's p99 latency limit.
constexpr double kRate = 18'000.0;
constexpr double kLadder[] = {5'000, 10'000, 20'000};
constexpr double kLimitUs = 50'000.0;
// Share of --seconds spent at the fixed rate; the rest goes to the ladder.
constexpr double kMainShare = 0.55;

// The cube is bench_load's, its generator seed included: the run's seed
// draws the re-crawl batches and the arrival times. Cubes drawn from
// different seeds differ in p50_us by up to about 20%, which would widen the
// spread over seeds past what the host adds.
ScaleSpec CubeSpec() {
  ScaleSpec spec;
  spec.seed = 23;
  spec.num_workers = 200'000;
  spec.num_queries = 2000;
  spec.num_locations = 25;
  spec.num_ranked_columns = 5000;
  return spec;
}

// Two load threads and a two-thread maintainer: the spinning load threads
// and the writer's upserts together fill a 4-vCPU host without
// oversubscribing it. Four of each would measure the scheduler (over ten
// seeds p50_us spread up to 0.5 of its median, audit_s up to 0.27). The
// oracle runs outside every timed region and may use every core.
size_t LoadThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 2);
}
constexpr size_t kBuildThreads = 2;
size_t OracleThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

// Exact spelling of a request, for grouping a trace into its patterns.
std::string Spelling(const QuantificationRequest& r) {
  std::string s = std::to_string(static_cast<int>(r.target)) + "|" +
                  std::to_string(r.k) + "|" +
                  std::to_string(static_cast<int>(r.direction)) + "|";
  for (size_t p : r.agg1.positions) s += std::to_string(p) + ",";
  s += "|";
  for (size_t p : r.agg2.positions) s += std::to_string(p) + ",";
  return s;
}

// The `load` layer: the benchmark's own Poisson schedule (microsecond
// offsets from stream start).
std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate,
                                     double seconds) {
  Span span("load.schedule");
  Rng rng(seed);
  std::vector<int64_t> at;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) * 1e6 / rate;
    if (t >= seconds * 1e6) break;
    at.push_back(static_cast<int64_t>(t));
  }
  return at;
}

// Re-crawl batches: each rotates the observed ranking of kBatchColumns
// random observed columns, against an evolving copy so that replaying the
// batches in order reproduces the writer's dataset exactly.
std::vector<CrawlBatch> MakeBatches(const MarketplaceDataset& initial,
                                    size_t count, uint64_t seed) {
  std::vector<std::pair<QueryId, LocationId>> columns;
  for (const QueryLocation& ql : initial.RankedPairs()) {
    columns.emplace_back(ql.query, ql.location);
  }
  std::sort(columns.begin(), columns.end());
  MarketplaceDataset scratch = initial;
  Rng rng(seed);
  std::vector<CrawlBatch> batches;
  for (size_t b = 0; b < count; ++b) {
    CrawlBatch batch;
    for (size_t i = 0; i < kBatchColumns; ++i) {
      auto [q, l] = columns[rng.NextBelow(static_cast<uint32_t>(columns.size()))];
      MarketRanking ranking = *scratch.GetRanking(q, l);
      size_t shift = 1 + rng.NextBelow(
                             static_cast<uint32_t>(ranking.workers.size() - 1));
      std::rotate(ranking.workers.begin(), ranking.workers.begin() + shift,
                  ranking.workers.end());
      MustOk(scratch.SetRanking(q, l, ranking), "scratch apply");
      batch.rows.push_back(CrawlBatchRow{q, l, std::move(ranking)});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct Setup {
  std::unique_ptr<MarketplaceDataset> initial;  // for the oracle replay
  std::unique_ptr<GroupSpace> space;
  std::vector<CrawlBatch> batches;
  std::vector<QuantificationRequest> patterns;
  std::vector<uint32_t> trace;  // pattern index per request
  std::unique_ptr<MarketplaceCubeMaintainer> maintainer;
  std::unique_ptr<QuantificationService> service;
  double make_s = 0.0;
};

QuantificationService::Options ServiceOptions() {
  QuantificationService::Options options;
  options.cache_capacity = 4 * kPatterns;
  options.max_inflight = std::max<size_t>(2, LoadThreads());
  options.max_queue_depth = 256;
  options.max_followers_per_flight = 64;
  options.stale_budget = 4096;
  return options;
}

Setup MakeSetup(uint64_t seed, size_t trace_len, size_t batches) {
  Setup s;
  const ScaleSpec spec = CubeSpec();
  MarketplaceDataset data =
      OrDie(GenerateScaleMarketplace(spec), "scale marketplace");
  s.space = std::make_unique<GroupSpace>(
      OrDie(GroupSpace::Enumerate(data.schema()), "group space"));
  s.batches = MakeBatches(data, batches, seed * 131 + 3);

  // The request mix is part of the workload's definition, not of the run's
  // draw; the seed draws the re-crawl batches and the arrival times. This is
  // bench_load's traffic mix (its pattern seed): which pattern heads the Zipf
  // order decides how often the engine runs.
  ServeLoadSpec load;
  load.seed = 29;
  load.num_requests = trace_len;
  load.distinct_patterns = kPatterns;
  load.zipf_exponent = 1.0;
  std::vector<QuantificationRequest> requests =
      GenerateServeRequests(load, s.space->num_groups(), spec.num_queries,
                            spec.num_locations);
  std::unordered_map<std::string, uint32_t> index;
  for (QuantificationRequest& r : requests) {
    auto [it, inserted] = index.emplace(Spelling(r),
                                        static_cast<uint32_t>(s.patterns.size()));
    s.trace.push_back(it->second);
    if (inserted) s.patterns.push_back(std::move(r));
  }

  s.initial = std::make_unique<MarketplaceDataset>(data);
  double t0 = NowS();
  s.maintainer = std::make_unique<MarketplaceCubeMaintainer>(
      OrDie(MarketplaceCubeMaintainer::Make(std::move(data), *s.space,
                                            MarketMeasure::kExposure, {}, {},
                                            kBuildThreads),
            "maintainer"));
  s.make_s = NowS() - t0;
  s.service = std::make_unique<QuantificationService>(
      s.maintainer->snapshot(), ServiceOptions());
  // Warm-up, so the measured phase starts from a deployed steady state: every
  // pattern is answered (and cached) once.
  for (const Result<QuantificationResult>& r :
       s.service->AnswerBatch(s.patterns)) {
    OrDie(r, "warm-up answer");
  }
  return s;
}

// One served request, as the load generator saw it.
struct Served {
  int64_t scheduled_us = 0;
  double done_us = 0.0;
  double sent_us = 0.0;  // when the generator sent it
  uint32_t pattern = 0;
  uint32_t lo = 0;  // snapshot versions bounding the request's lifetime
  uint32_t hi = 0;
  StatusCode code = StatusCode::kOk;
  uint64_t digest = 0;
};

struct PhaseReport {
  std::vector<Served> served;
  uint64_t backlog_max = 0;
  std::vector<double> lateness_us;
};

// Published snapshot versions: the writer bumps `published` after each
// SetSnapshot returns, so a request that read `published` = v before Answer
// and w after it pinned a version in [v, w + 1].
struct Versions {
  std::atomic<uint32_t> published{0};
};

PhaseReport RunOpenLoop(QuantificationService& service, const Setup& setup,
                        const std::vector<int64_t>& arrivals,
                        size_t trace_offset, Versions* versions) {
  PhaseReport report;
  report.served.resize(arrivals.size());
  report.lateness_us.resize(arrivals.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> backlog_max{0};
  const int64_t start_ns = NowNs() + 2'000'000;  // let every thread arrive
  auto worker = [&] {
    uint64_t my_backlog = 0;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) break;
      const int64_t due_ns = start_ns + arrivals[i] * 1000;
      int64_t now_ns = NowNs();
      if (now_ns < due_ns) {
        // Sleep to within kSpinNs of the arrival, then yield-spin: waking
        // an idle vCPU can take longer than a cheap answer, and that wait
        // would be charged to the service.
        if (due_ns - now_ns > kSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due_ns - now_ns - kSpinNs));
        }
        while ((now_ns = NowNs()) < due_ns) std::this_thread::yield();
      } else {
        const int64_t now_us = (now_ns - start_ns) / 1000;
        const size_t due = static_cast<size_t>(
            std::upper_bound(arrivals.begin(), arrivals.end(), now_us) -
            arrivals.begin());
        my_backlog = std::max<uint64_t>(my_backlog, due > i ? due - i : 0);
      }
      const int64_t late_us = (now_ns - due_ns) / 1000;
      Served& out = report.served[i];
      out.scheduled_us = arrivals[i];
      out.sent_us = static_cast<double>(now_ns - start_ns) * 1e-3;
      out.pattern = setup.trace[(trace_offset + i) % setup.trace.size()];
      out.lo = versions->published.load(std::memory_order_acquire);
      Result<QuantificationResult> answer = [&] {
        Span span("serve.answer", i + 1);
        return service.Answer(setup.patterns[out.pattern],
                              late_us >= kDeadlineUs ? -1
                                                     : kDeadlineUs - late_us);
      }();
      out.hi = versions->published.load(std::memory_order_acquire) + 1;
      out.done_us = static_cast<double>(NowNs() - start_ns) * 1e-3;
      report.lateness_us[i] = static_cast<double>(late_us);
      out.code = answer.ok() ? StatusCode::kOk : answer.status().code();
      if (answer.ok()) out.digest = AnswerDigest(*answer);
    }
    uint64_t seen = backlog_max.load();
    while (my_backlog > seen &&
           !backlog_max.compare_exchange_weak(seen, my_backlog)) {
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < LoadThreads(); ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  report.backlog_max = backlog_max.load();
  return report;
}

// The hot workload's writer: one batch per period, each handed to
// UpsertCrawlBatch and then published with SetSnapshot.
class Writer {
 public:
  Writer(Setup* setup, Versions* versions)
      : setup_(setup), versions_(versions) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    stop_.store(false);
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> fresh_ms, upsert_ms, flip_us;
  uint64_t columns_changed = 0;
  std::vector<size_t> applied;  // batch index per published version

 private:
  void Loop() {
    int64_t due = NowNs() + kWriterPeriodUs * 1000;
    while (!stop_.load() && next_batch_ < setup_->batches.size()) {
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<int64_t>(due - now, 5'000'000)));
        continue;
      }
      due += kWriterPeriodUs * 1000;
      const size_t b = next_batch_++;
      double t0 = NowS();
      UpsertReport report = [&] {
        Span span("serve.upsert");
        return OrDie(setup_->maintainer->UpsertCrawlBatch(setup_->batches[b]),
                     "upsert");
      }();
      double t1 = NowS();
      columns_changed += report.columns_changed;
      if (report.published_new_snapshot) {
        {
          Span span("serve.flip");
          setup_->service->SetSnapshot(setup_->maintainer->snapshot());
        }
        applied.push_back(b);
        versions_->published.fetch_add(1, std::memory_order_release);
      }
      double t2 = NowS();
      upsert_ms.push_back((t1 - t0) * 1e3);
      flip_us.push_back((t2 - t1) * 1e6);
      fresh_ms.push_back((t2 - t0) * 1e3);
    }
  }

  Setup* setup_;
  Versions* versions_;
  size_t next_batch_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Whether pattern `r` reads cube column (q, l): the columns a request's
// answer depends on (the two non-target selectors; a group selector never
// narrows the column set).
bool Reads(const QuantificationRequest& r, size_t q, size_t l) {
  auto has = [](const AxisSelector& sel, size_t pos) {
    return sel.all() || std::find(sel.positions.begin(), sel.positions.end(),
                                  pos) != sel.positions.end();
  };
  switch (r.target) {
    case Dimension::kGroup:
      return has(r.agg1, q) && has(r.agg2, l);
    case Dimension::kQuery:
      return has(r.agg2, l);
    case Dimension::kLocation:
      return has(r.agg2, q);
  }
  return true;
}

struct OracleVerdict {
  uint64_t fresh = 0;       // equal to the oracle during the lifetime
  uint64_t stale = 0;       // equal to the oracle only before the lifetime
  uint64_t mismatches = 0;  // equal to neither
  uint64_t max_stale_serves = 0;  // most stale answers in one episode
  uint64_t over_budget = 0;  // stale answers past the budget of their episode
  uint64_t solves = 0;
};

// Checks every OK answer against SolveQuantification on a private replay of
// the published snapshots: a second maintainer fed the writer's batches in
// order from the initial dataset, solved at every published version.
//
// A pattern's answer can change only at versions whose batch touched a
// column it reads, so its versions fall into intervals that open at version
// 0 and at each touching version, and the oracle solves it once per
// interval. An answer is fresh when its bits equal the oracle on an interval
// its lifetime [lo, hi] overlaps. Otherwise they must equal the oracle on an
// earlier interval: a stale serve of the value cached then. The service
// serves one cached value stale at most `stale_budget` times per staleness
// episode; every stale answer past that fails the run, as a mismatch does.
OracleVerdict CheckServed(const Setup& setup,
                          const std::vector<const Served*>& served,
                          const std::vector<size_t>& applied,
                          uint32_t stale_budget, bool corrupt_one) {
  OracleVerdict verdict;
  const size_t num_versions = applied.size() + 1;
  const size_t num_patterns = setup.patterns.size();
  MarketplaceCubeMaintainer replay =
      OrDie(MarketplaceCubeMaintainer::Make(*setup.initial, *setup.space,
                                            MarketMeasure::kExposure, {}, {},
                                            OracleThreads()),
            "oracle maintainer");
  // opens[p][v]: the version that opened pattern p's interval holding v.
  std::vector<std::vector<uint32_t>> opens(
      num_patterns, std::vector<uint32_t>(num_versions, 0));
  // opened[v]: the patterns whose interval opens at version v.
  std::vector<std::vector<uint32_t>> opened(num_versions);
  for (uint32_t p = 0; p < num_patterns; ++p) opened[0].push_back(p);
  {
    std::shared_ptr<const CubeSnapshot> axes = replay.snapshot();
    for (size_t v = 1; v < num_versions; ++v) {
      std::vector<char> touched(num_patterns, 0);
      for (const CrawlBatchRow& row : setup.batches[applied[v - 1]].rows) {
        const UnfairnessCube& cube = axes->cube();
        size_t q = OrDie(cube.PosOf(Dimension::kQuery, row.query), "query pos");
        size_t l = OrDie(cube.PosOf(Dimension::kLocation, row.location),
                         "location pos");
        for (size_t p = 0; p < num_patterns; ++p) {
          if (Reads(setup.patterns[p], q, l)) touched[p] = 1;
        }
      }
      for (uint32_t p = 0; p < num_patterns; ++p) {
        opens[p][v] = touched[p] ? static_cast<uint32_t>(v) : opens[p][v - 1];
        if (touched[p]) opened[v].push_back(p);
      }
    }
  }

  // Intervals some answer's lifetime overlaps. A stale answer repeats a
  // value computed while its interval was current, for a request whose own
  // lifetime overlaps it (or by the warm-up, at version 0), so these are
  // the only intervals the verdicts below can read.
  std::vector<std::set<uint32_t>> needed(num_patterns, std::set<uint32_t>{0});
  for (const Served* s : served) {
    const std::vector<uint32_t>& at = opens[s->pattern];
    const size_t hi = std::min<size_t>(s->hi, num_versions - 1);
    for (size_t v = s->lo; v <= hi; ++v) needed[s->pattern].insert(at[v]);
  }
  for (uint32_t v = 0; v < num_versions; ++v) {
    std::erase_if(opened[v],
                  [&](uint32_t p) { return needed[p].count(v) == 0; });
  }

  // oracle[p]: interval start -> answer digest. The solves of one version
  // run while the replay applies the next version's batches (snapshots are
  // immutable), so at most two replayed snapshots are alive at a time.
  std::vector<std::map<uint32_t, uint64_t>> oracle(num_patterns);
  std::vector<uint64_t> digests;
  std::vector<std::thread> solvers;
  std::atomic<size_t> next{0};
  auto finish = [&](size_t v) {
    for (std::thread& t : solvers) t.join();
    solvers.clear();
    for (size_t i = 0; i < opened[v].size(); ++i) {
      oracle[opened[v][i]][static_cast<uint32_t>(v)] = digests[i];
    }
    verdict.solves += opened[v].size();
  };
  size_t next_batch = 0;
  for (size_t v = 0; v < num_versions; ++v) {
    // Batches the writer applied without publishing still change the
    // dataset later batches were drawn against.
    for (; v > 0 && next_batch <= applied[v - 1]; ++next_batch) {
      OrDie(replay.UpsertCrawlBatch(setup.batches[next_batch]),
            "oracle upsert");
    }
    if (v > 0) finish(v - 1);
    digests.assign(opened[v].size(), 0);
    next.store(0);
    auto solve = [&, snap = replay.snapshot(), todo = &opened[v]] {
      for (size_t i; (i = next.fetch_add(1)) < todo->size();) {
        digests[i] = AnswerDigest(
            OrDie(SolveQuantification(snap->cube(), snap->indices(),
                                      setup.patterns[(*todo)[i]]),
                  "oracle solve"));
      }
    };
    for (size_t t = 0; t < OracleThreads(); ++t) solvers.emplace_back(solve);
  }
  finish(num_versions - 1);

  // The interval whose value each answer repeats, by pattern.
  struct Match {
    double done_us;
    uint32_t from;
    bool fresh;
  };
  std::vector<std::vector<Match>> matches(num_patterns);
  for (const Served* s : served) {
    uint64_t digest = s->digest;
    if (corrupt_one && s == served.front()) digest ^= 1;
    const std::map<uint32_t, uint64_t>& values = oracle[s->pattern];
    const uint32_t first = opens[s->pattern][s->lo];
    const uint32_t last =
        opens[s->pattern][std::min<size_t>(s->hi, num_versions - 1)];
    std::optional<uint32_t> fresh;
    for (auto it = values.lower_bound(first);
         it != values.end() && it->first <= last; ++it) {
      if (it->second == digest) fresh = it->first;
    }
    auto earlier = std::find_if(
        std::make_reverse_iterator(values.lower_bound(first)), values.rend(),
        [&](const auto& entry) { return entry.second == digest; });
    if (fresh) {
      matches[s->pattern].push_back(Match{s->done_us, *fresh, true});
    } else if (earlier != values.rend()) {
      matches[s->pattern].push_back(Match{s->done_us, earlier->first, false});
    } else if (++verdict.mismatches <= 5) {
      std::fprintf(stderr,
                   "oracle mismatch (served): pattern %s, versions %u..%u\n",
                   Spelling(setup.patterns[s->pattern]).c_str(), s->lo, s->hi);
    }
  }

  // Stale serves per staleness episode. The episode of the value from
  // interval e ends once an answer from a later interval is served fresh: a
  // refresh replaced the entry. A slow leader may store an old value again
  // after that, which opens a second episode with a budget of its own.
  for (std::vector<Match>& answers : matches) {
    std::sort(answers.begin(), answers.end(),
              [](const Match& a, const Match& b) {
                return a.done_us < b.done_us;
              });
    std::map<uint32_t, uint64_t> episode;  // interval -> stale serves so far
    for (const Match& m : answers) {
      if (m.fresh) {
        ++verdict.fresh;
        episode.erase(episode.begin(), episode.lower_bound(m.from));
        continue;
      }
      ++verdict.stale;
      const uint64_t n = ++episode[m.from];
      verdict.max_stale_serves = std::max(verdict.max_stale_serves, n);
      if (n > stale_budget) ++verdict.over_budget;
    }
  }
  return verdict;
}

// Traced single-thread replay of `count` trace requests from `offset`:
// times the cache key, the service's Answer (split by hit or miss) and a
// direct SolveQuantification of the same request against the same pinned
// snapshot for the misses, so served latency splits into key, engine and
// the rest.
void ReplayTraced(const Setup& setup, size_t offset, size_t count,
                  RunResult* result) {
  std::shared_ptr<const CubeSnapshot> snap = setup.service->snapshot();
  std::vector<double> key_us, hit_us, miss_us, engine_us;
  double key_total = 0.0, answer_total = 0.0, engine_total = 0.0;
  uint64_t sorted = 0, random = 0;
  for (size_t i = 0; i < count; ++i) {
    const QuantificationRequest& request =
        setup.patterns[setup.trace[(offset + i) % setup.trace.size()]];
    const uint64_t id = (1ULL << 32) + i;
    double t0 = NowS();
    {
      Span span("serve.key", id);
      RequestCacheKey key(request, *snap);
    }
    double t1 = NowS();
    const uint64_t hits = setup.service->stats().cache_hits;
    double t2 = NowS();
    {
      Span span("serve.answer", id);
      OrDie(setup.service->Answer(request), "replay answer");
    }
    double t3 = NowS();
    const bool hit = setup.service->stats().cache_hits > hits;
    key_us.push_back((t1 - t0) * 1e6);
    (hit ? hit_us : miss_us).push_back((t3 - t2) * 1e6);
    key_total += t1 - t0;
    answer_total += t3 - t2;
    if (hit) continue;
    QuantificationResult solved = [&] {
      Span span("core.p1", id);
      return OrDie(SolveQuantification(snap->cube(), snap->indices(), request),
                   "replay solve");
    }();
    double t4 = NowS();
    sorted += solved.stats.sorted_accesses;
    random += solved.stats.random_accesses;
    engine_us.push_back((t4 - t3) * 1e6);
    engine_total += t4 - t3;
  }
  result->Add("serve.key_us.p50", Percentile(key_us, 0.5), "us");
  result->Add("serve.hit_us.p50", Percentile(hit_us, 0.5), "us");
  result->Add("serve.miss_us.p99", Percentile(miss_us, 0.99), "us");
  result->Add("serve.key_frac", key_total / answer_total, "ratio");
  result->Add("serve.engine_frac", std::min(1.0, engine_total / answer_total),
              "ratio");
  result->Add("core.p1_us.p50", Percentile(engine_us, 0.5), "us");
  result->Add("core.p1_us.p99", Percentile(engine_us, 0.99), "us");
  result->Add("core.p1_sorted", static_cast<double>(sorted), "count");
  result->Add("core.p1_random", static_cast<double>(random), "count");
  result->samples.emplace_back("serve.hit_us", hit_us.size());
  result->samples.emplace_back("serve.miss_us", miss_us.size());
  result->samples.emplace_back("core.p1_us", engine_us.size());
}

struct LadderStep {
  double rate = 0.0;
  double p99_us = 0.0;
  double fail_frac = 0.0;
  double late_p99_us = 0.0;
  bool pass = false;
};

}  // namespace

RunResult RunServe(const RunConfig& config) {
  const double main_s = config.seconds * kMainShare;
  const double rung_s = config.seconds * (1.0 - kMainShare) /
                        static_cast<double>(std::size(kLadder));
  // Enough trace for the main phase plus every rung.
  double offered = kRate * main_s;
  for (double r : kLadder) offered += r * rung_s;
  const size_t trace_len = static_cast<size_t>(offered * 1.2) + 64;
  const size_t num_batches = static_cast<size_t>(
      config.seconds * 1e6 / static_cast<double>(kWriterPeriodUs)) + 16;

  // --- Set-up, several times; keep the last.
  std::vector<double> setup_times;
  std::vector<double> make_times;
  Setup setup;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    setup = Setup();
    double t0 = NowS();
    setup = MakeSetup(config.seed, trace_len, num_batches);
    setup_times.push_back(NowS() - t0);
    make_times.push_back(setup.make_s);
  }
  std::printf("setup: %zu patterns, trace %zu, %zu batches, load threads %zu\n",
              setup.patterns.size(), setup.trace.size(), setup.batches.size(),
              LoadThreads());

  // --- Fixed-rate phase ------------------------------------------------------
  Versions versions;
  const QuantificationService::Stats before = setup.service->stats();
  const auto lru_before = setup.service->cache_stats();
  std::vector<int64_t> arrivals =
      PoissonArrivals(config.seed * 977 + 1, kRate, main_s);
  // The writer runs through the fixed-rate phase and again through the
  // ladder, at one cadence: a run holds more than 100 upserts for fresh_*.
  Writer writer(&setup, &versions);
  writer.Start();
  PhaseReport main = RunOpenLoop(*setup.service, setup, arrivals, 0, &versions);
  writer.Stop();
  const QuantificationService::Stats stats = setup.service->stats();
  const auto lru = setup.service->cache_stats();
  const std::vector<size_t> applied = writer.applied;

  // --- slo_qps ladder (writer on) -------------------------------------------
  // Every rung runs, so each run spends the same time at the same loads and
  // the writer's freshness samples reach 100; slo_qps is the last rung of
  // the passing prefix.
  std::vector<LadderStep> steps;
  double slo_qps = 0.0;
  bool passing = true;
  size_t trace_offset = arrivals.size();
  writer.Start();
  for (size_t i = 0; i < std::size(kLadder); ++i) {
    std::vector<int64_t> rung =
        PoissonArrivals(config.seed * 977 + 100 + i, kLadder[i], rung_s);
    PhaseReport r =
        RunOpenLoop(*setup.service, setup, rung, trace_offset, &versions);
    trace_offset += rung.size();
    LadderStep step;
    step.rate = kLadder[i];
    std::vector<double> lat;
    uint64_t failed = 0;
    for (const Served& s : r.served) {
      if (s.code == StatusCode::kOk) {
        lat.push_back(s.done_us - static_cast<double>(s.scheduled_us));
      } else {
        ++failed;
      }
    }
    step.p99_us = lat.empty() ? 0.0 : Percentile(lat, 0.99);
    step.fail_frac = static_cast<double>(failed) /
                     static_cast<double>(std::max<size_t>(1, r.served.size()));
    // Backlog growth: the generator's lateness over the second half of the
    // rung must stay inside the limit.
    std::vector<double> late_tail(
        r.lateness_us.begin() + static_cast<long>(r.lateness_us.size() / 2),
        r.lateness_us.end());
    step.late_p99_us = late_tail.empty() ? 0.0 : Percentile(late_tail, 0.99);
    step.pass = !lat.empty() && step.p99_us <= kLimitUs &&
                step.fail_frac <= 0.01 && step.late_p99_us <= kLimitUs;
    steps.push_back(step);
    passing = passing && step.pass;
    if (passing) slo_qps = step.rate;
  }
  writer.Stop();
  for (const LadderStep& s : steps) {
    std::printf("ladder: %.0f/s p99 %.0f us fail %.4f late p99 %.0f us %s\n",
                s.rate, s.p99_us, s.fail_frac, s.late_p99_us,
                s.pass ? "pass" : "FAIL");
  }

  // Peak memory of the system under load, before the oracle's own replay.
  const double peak_rss_mb = PeakRssMb();

  // --- Oracle (outside every timed region) ----------------------------------
  std::vector<const Served*> ok;
  std::vector<double> latency_us;
  // Latency from scheduled arrival, and the Answer call's own duration.
  std::vector<double> service_us;
  uint64_t failed = 0;
  for (const Served& s : main.served) {
    if (s.code == StatusCode::kOk) {
      ok.push_back(&s);
      latency_us.push_back(s.done_us - static_cast<double>(s.scheduled_us));
      service_us.push_back(s.done_us - s.sent_us);
    } else {
      ++failed;
    }
  }
  double t0 = NowS();
  const uint32_t stale_budget = ServiceOptions().stale_budget;
  OracleVerdict verdict =
      CheckServed(setup, ok, applied, stale_budget, config.corrupt_one);
  std::printf("oracle: %zu answers, %llu fresh, %llu stale (at most %llu in "
              "one episode, budget %u, %llu over), %llu mismatches; %llu "
              "solves over %zu versions in %.1fs\n",
              ok.size(), static_cast<unsigned long long>(verdict.fresh),
              static_cast<unsigned long long>(verdict.stale),
              static_cast<unsigned long long>(verdict.max_stale_serves),
              stale_budget,
              static_cast<unsigned long long>(verdict.over_budget),
              static_cast<unsigned long long>(verdict.mismatches),
              static_cast<unsigned long long>(verdict.solves),
              applied.size() + 1, NowS() - t0);

  // --- Metrics ---------------------------------------------------------------
  RunResult result;
  const uint64_t attempted = main.served.size();
  failed += verdict.mismatches + verdict.over_budget;
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  result.attempted = attempted;
  result.failed = failed;
  result.correct = verdict.mismatches == 0 && verdict.over_budget == 0;
  result.Add("setup_s", Median(setup_times), "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
  result.Add("ok_frac", 1.0 - fail_frac, "ratio");
  result.Add("audit_s", Median(make_times), "s");
  // p50_us and p99_us time the Answer call; the latencies from scheduled
  // arrival are the per-layer sched_p50_us and p99_phase_us. Timed from
  // arrival, a request also waits out whatever held every load thread when
  // it came due: a refresh stall, or a load thread's vCPU taken by the host
  // while it held a lock the other needed. That wait follows the host's
  // load: over ten seeds on a 4-vCPU host with 1-6% CPU steal the
  // arrival-timed p50 and p99 (medians over 100 ms windows) spread 0.24 and
  // 0.37 (IQR/median) while the call's own p50 and p99 spread 0.035 and
  // 0.025.
  result.Add("p50_us", Percentile(service_us, 0.50), "us");
  result.Add("p99_us", Percentile(service_us, 0.99), "us");
  result.samples.emplace_back("p50_us", service_us.size());
  result.samples.emplace_back("setup_s", setup_times.size());

  const uint64_t admitted = stats.admitted - before.admitted;
  const uint64_t hits = stats.cache_hits - before.cache_hits;
  result.Add("fail_frac", fail_frac, "ratio");
  result.Add("sched_p50_us", Percentile(latency_us, 0.50), "us");
  result.Add("p99_phase_us", Percentile(latency_us, 0.99), "us");
  result.samples.emplace_back("p99_phase_us", latency_us.size());
  result.Add("slo_qps", slo_qps, "1/s");
  result.Add("stale_frac",
             static_cast<double>(verdict.stale) /
                 static_cast<double>(std::max<size_t>(1, ok.size())),
             "ratio");
  result.Add("fresh_p50_ms", Percentile(writer.fresh_ms, 0.50), "ms");
  result.Add("fresh_p90_ms", Percentile(writer.fresh_ms, 0.90), "ms");
  result.samples.emplace_back("fresh_ms", writer.fresh_ms.size());
  result.Add("serve.hit_frac",
             static_cast<double>(hits) /
                 static_cast<double>(std::max<uint64_t>(1, admitted)),
             "ratio");
  result.Add("serve.coalesced",
             static_cast<double>(stats.coalesced - before.coalesced), "count");
  result.Add("serve.computations",
             static_cast<double>(stats.computations - before.computations),
             "count");
  result.Add("serve.shed",
             static_cast<double>(stats.shed_deadline - before.shed_deadline),
             "count");
  result.Add("serve.rejected",
             static_cast<double>(stats.rejected_queue + stats.rejected_followers -
                                 before.rejected_queue -
                                 before.rejected_followers),
             "count");
  result.Add("serve.stale_hits",
             static_cast<double>(stats.stale_hits - before.stale_hits), "count");
  result.Add("serve.upsert_ms.p50", Percentile(writer.upsert_ms, 0.50), "ms");
  result.Add("serve.columns_changed",
             static_cast<double>(writer.columns_changed), "count");
  result.Add("serve.flip_us", Percentile(writer.flip_us, 0.50), "us");
  result.Add("serve.maintainer_make_s", Median(make_times), "s");
  result.Add("common.lru_evictions",
             static_cast<double>(lru.evictions - lru_before.evictions), "count");
  result.Add("load.offered", static_cast<double>(attempted), "count");
  result.Add("load.ok", static_cast<double>(ok.size()), "count");
  result.Add("load.lateness_p99_us", Percentile(main.lateness_us, 0.99), "us");
  result.Add("load.backlog_max", static_cast<double>(main.backlog_max),
             "count");
  if (config.trace) ReplayTraced(setup, trace_offset, 4000, &result);
  return result;
}

}  // namespace fairbench
