// Batch job scheduler: shard a set of .dqdimacs instances across a worker
// pool with per-job wall-clock, AIG-node, and RSS budgets.
//
// Each job parses one file and solves it through api::execute with the
// configured engine (the paper's HQS by default, or a portfolio race).
// Every attempt runs under the guard
// layer (guard.hpp): exceptions become structured FailureInfo records, and
// an optional RSS watchdog converts imminent memory exhaustion into a
// cooperative Memout.  A job that dies on a resource budget (or crashes)
// walks down a configurable degradation ladder — full -> FRAIG off -> node
// budget halved -> BDD fallback engine — so a memout resolves into the
// cheapest configuration that still answers instead of burning the rest of
// its wall-clock.
//
// Results stream out as one JSON object per line (JSONL).  The stream
// doubles as a journal: readJournal() parses it back (tolerating a
// truncated final line from a killed run), and conclusiveInstances() tells
// a resuming run which instances it can skip.  `dqbf_batch --resume` wires
// the two together.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/cancel.hpp"
#include "src/base/result.hpp"
#include "src/cache/result_cache.hpp"
#include "src/runtime/api.hpp"
#include "src/runtime/guard.hpp"
#include "src/strategy/spec.hpp"

namespace hqs {

struct BatchOptions {
    /// Worker threads (0 = std::thread::hardware_concurrency()).
    std::size_t numWorkers = 0;
    /// Per-job wall-clock budget in seconds (0 = unlimited).
    double jobTimeoutSeconds = 0.0;
    /// Per-job AIG-node budget, the stand-in for the paper's 8 GB memout
    /// (0 = unlimited; also caps the iDQ ground-clause count and the CEGAR
    /// rule count).  Rungs of the degradation ladder scale this down.
    std::size_t nodeLimit = 0;
    /// Process-RSS budget in bytes (0 = no watchdog).  The guard layer fires
    /// a cooperative Memout before the OS OOM-killer would act.  RSS is
    /// process-wide: under concurrent jobs the first breach degrades every
    /// running job, which is the intended load-shedding behavior.
    std::size_t rssLimitBytes = 0;
    /// Engine every job runs: hqs (default), hqs-bdd, cegar, idq, expand,
    /// or a portfolio race of the first portfolioEngines racers (0 = all).
    api::EngineSpec engine;
    /// Extract a Skolem certificate for every SAT verdict and self-check it
    /// through the independent parser/checker; the outcome lands in each
    /// row's `certificate` block.  BDD-backend rungs cannot record Skolem
    /// traces and skip extraction.
    bool certify = false;
    /// Degradation ladder; rung 0 is the primary configuration.  An attempt
    /// that ends in Memout or a crash-style failure moves to the next rung
    /// (after that rung's backoff).  Resize to one rung to disable retries.
    std::vector<DegradationRung> ladder = defaultDegradationLadder();
    /// Solve canonically identical instances (same cache::canonicalKey) only
    /// once per run: the first occurrence in input order is the
    /// representative, later duplicates copy its row with `dedup_of` naming
    /// it.  Instances that fail to parse are never grouped.
    bool dedup = true;
    /// Solve delta families through a shared solve session (`dqbf_batch
    /// --session-group`): instances whose filename stem matches up to the
    /// last `_` (foo_1.dqdimacs, foo_2.dqdimacs, ...) and that share an
    /// identical quantifier prefix are grouped; the clause-multiset
    /// intersection becomes the session's base formula and each instance
    /// solves as an add-group/solve/retract delta, reusing untouched
    /// connected components across the family.  Singletons, DQCIR
    /// instances, and prefix mismatches fall back to cold solves; session
    /// rows carry a `session` block and skip the degradation ladder.
    bool sessionGroup = false;
    /// Optional cross-run result cache, consulted before the ladder and
    /// updated after conclusive verdicts.  How it is consulted follows
    /// `strategy`'s cache policy (default: read and write).  A cache-layer
    /// failure degrades to a miss; it never fails the job.
    std::shared_ptr<cache::ResultCache> resultCache;
    /// Optional strategy spec: when set it supplies the degradation ladder,
    /// the portfolio lineup, and the cache policy mode, and its name tags
    /// the strategy.rung.* metrics.
    std::optional<strategy::StrategySpec> strategy;
    /// Fires to abandon the whole batch: running jobs unwind with Timeout,
    /// queued jobs are reported as cancelled without being solved.
    CancelToken cancel;
};

/// Per-instance solver metrics pulled from the metrics registry scope the
/// job ran under (src/obs/): phase wall-clock, peak AIG cone, elimination
/// counts.  All zero when the obs instrumentation is compiled out
/// (-DHQS_OBS=OFF) or when the entry was journaled by an older build.
struct BatchJobMetrics {
    double preprocessMs = 0.0; ///< CNF preprocessing
    double elimMs = 0.0;       ///< Theorem-1/2 + unit/pure elimination
    double qbfMs = 0.0;        ///< linearized-QBF backend
    double fraigMs = 0.0;      ///< FRAIG sweeps
    std::int64_t peakAigNodes = 0;  ///< peak matrix cone size
    std::int64_t eliminations = 0;  ///< all quantifier eliminations performed
    std::int64_t copies = 0;        ///< existential copies from Theorem 1

    bool any() const
    {
        return preprocessMs != 0 || elimMs != 0 || qbfMs != 0 || fraigMs != 0 ||
               peakAigNodes != 0 || eliminations != 0 || copies != 0;
    }
};

/// Engine-family accounting of one portfolio race: which family's racer
/// won, and the best result each family reached.  Empty outside portfolio
/// mode (any() = false).
struct BatchJobFamilies {
    std::string winner; ///< api::engineFamily of the winning racer
    /// family -> most conclusive result any of its racers returned, in
    /// first-appearance order of the lineup.
    std::vector<std::pair<std::string, std::string>> raced;

    bool any() const { return !raced.empty(); }
};

/// Certificate outcome of one SAT verdict under BatchOptions::certify.
struct BatchJobCertificate {
    bool present = false;    ///< a certificate was extracted for this verdict
    bool valid = false;      ///< independent checker accepted it
    std::string status;      ///< checker status ("ok", "refuted", ...)
    double extractMs = 0.0;  ///< extraction + serialization time
    double checkMs = 0.0;    ///< independent check time
    std::int64_t sizeNodes = 0; ///< AND nodes across the function cones

    bool any() const { return present; }
};

/// Result of one instance, in input order.
struct BatchJobResult {
    std::string instance;  ///< path as given
    SolveResult result = SolveResult::Unknown;
    double wallMilliseconds = 0.0;
    /// Engine that produced the verdict: the engine's name ("hqs", ...) or
    /// the portfolio winner's ("" while no racer was definitive).
    std::string engine;
    unsigned attempts = 0;   ///< rungs tried (1 = answered at the full config)
    bool degraded = false;   ///< verdict came from a rung below "full"
    std::string rung;        ///< name of the rung that produced the verdict
    /// Structured failure from the final attempt (kind None on clean runs).
    FailureInfo failure;
    std::string error;       ///< human-readable mirror of `failure.what`
    /// Registry metrics of the final attempt; survives a JSONL round-trip,
    /// so --resume keeps the fields of already-solved instances.
    BatchJobMetrics metrics;
    /// Certificate outcome (present only under BatchOptions::certify on a
    /// SAT verdict); survives a JSONL round-trip like `metrics`.
    BatchJobCertificate certificate;
    /// Engine-family win/loss block of the final portfolio race (empty in
    /// single-engine mode); the winner survives a JSONL round-trip.
    BatchJobFamilies families;
    /// Instance this row was deduplicated against ("" = solved itself).
    /// Set, the row is a copy of `dedup_of`'s row: same verdict, engine,
    /// rung, and certificate outcome.
    std::string dedupOf;
    /// Verdict came from the result cache instead of a solve (rung is
    /// "cache" and attempts is 0).
    bool cached = false;
    /// Session-group accounting (BatchOptions::sessionGroup): the family
    /// stem this instance solved under ("" = cold solve), and the session's
    /// incremental reuse for this delta solve.
    std::string sessionGroup;
    std::size_t sessionComponents = 0;
    std::size_t sessionReused = 0;
    std::int64_t sessionConeNodesSaved = 0;
};

/// Serialize @p r as one JSONL row, terminating newline included.  The row
/// is always a single line (writeJsonString escapes embedded newlines), so
/// emitting it with one write keeps the journal torn-row free: a killed
/// writer can truncate the *last* row but never interleave two rows, and
/// concurrent appenders to an O_APPEND fd cannot shear each other's rows.
std::string toJsonlLine(const BatchJobResult& r);

/// Write toJsonlLine(r) to @p os as a single os.write() call (on an
/// unbuffered or line-buffered stream this is one write(2) per row).
void writeJsonl(const BatchJobResult& r, std::ostream& os);

/// Parse one JSONL line previously produced by writeJsonl.  Returns false
/// on garbage (e.g. the torn final line of a killed run).
bool readJsonl(const std::string& line, BatchJobResult& out);

/// Parse a whole journal stream, skipping unparsable lines.  When a run was
/// resumed into the same file an instance can appear more than once; the
/// last entry wins.
std::vector<BatchJobResult> readJournal(std::istream& in);

/// The instances of @p journal that already carry a conclusive (Sat/Unsat)
/// verdict — the set a resuming run skips.
std::unordered_set<std::string> conclusiveInstances(const std::vector<BatchJobResult>& journal);

class BatchScheduler {
public:
    explicit BatchScheduler(BatchOptions opts = {}) : opts_(std::move(opts)) {}

    /// All *.dqdimacs and *.dqcir files directly inside @p dir, sorted by
    /// name.  DQCIR instances lower through the circuit front end at solve
    /// time and never touch the result cache (cache.bypass.format).
    static std::vector<std::string> collectInstances(const std::string& dir);

    /// Solve every file, @p opts.numWorkers at a time.  Results come back in
    /// input order; when @p jsonl is non-null each result is additionally
    /// streamed to it (in completion order) as soon as its job finishes.
    std::vector<BatchJobResult> run(const std::vector<std::string>& files,
                                    std::ostream* jsonl = nullptr);

    /// Per-rung counters for the last run(), one entry per ladder rung.
    const std::vector<RungStats>& rungStats() const { return rungStats_; }

private:
    BatchOptions opts_;
    std::vector<RungStats> rungStats_;
};

} // namespace hqs
