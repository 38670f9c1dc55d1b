/**
 * @file
 * Shared pieces of the MARLin benchmark driver: options, the run
 * outcome with its metrics, wall-clock helpers, preallocated span
 * logs, hardware counters and the output checks.
 *
 * Every wall time comes from the benchmark's own steady clock; the
 * program's PhaseTimer sums (CPU time summed across pool threads)
 * are reported only as per-layer CPU figures.
 */

#ifndef MARLIN_PERFBENCH_BENCH_HH
#define MARLIN_PERFBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "marlin/base/instant.hh"
#include "marlin/base/types.hh"

namespace marlin::replay
{
struct AgentBatch;
struct IndexPlan;
struct JointTransitionLayout;
} // namespace marlin::replay

namespace perfbench
{

using marlin::Real;

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for traces, checkpoints and port files. */
    std::string outDir = ".bench_build/out";
    /** Path of the marlin_serve daemon (serve workload). */
    std::string serveBin;
};

/** Everything one workload run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every measured value by metric name (end-to-end and layer). */
    std::map<std::string, double> metrics;
    /** Human-readable notes printed before the result line. */
    std::vector<std::string> notes;

    /** Record a failed output check (keeps the first few reasons). */
    void check(bool ok, const std::string &what);
    void
    set(const std::string &name, double value)
    {
        metrics[name] = value;
    }
};

/** Monotonic nanoseconds on the program's shared trace timebase. */
inline std::uint64_t
nowNs()
{
    return marlin::base::nowNsSinceStart();
}

/** Linear-interpolated quantile of @p v (copied, q in [0, 1]). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** VmHWM of /proc/<pid>/status in MB (pid 0 = this process). */
double peakRssMb(int pid = 0);

/**
 * Fixed-capacity log of (start, duration) spans. All memory is
 * taken up front, so recording never allocates and the program's
 * steady-state allocation accounting stays undisturbed. Recording
 * is safe from several threads; spans past capacity are counted as
 * dropped. When @p trace_name is set, each span is also forwarded to
 * the program's obs::TraceRing for the Chrome trace.
 */
class SpanLog
{
  public:
    SpanLog(const char *trace_name, std::size_t capacity);

    void record(std::uint64_t start_ns, std::uint64_t dur_ns) noexcept;

    std::size_t size() const;
    std::size_t dropped() const;
    std::uint64_t start(std::size_t i) const { return starts[i]; }
    std::uint64_t duration(std::size_t i) const { return durs[i]; }
    void clear();

    /** Durations in microseconds. */
    std::vector<double> durationsUs() const;
    /** Sum of durations in seconds. */
    double totalSeconds() const;

  private:
    const char *name;
    std::vector<std::uint64_t> starts;
    std::vector<std::uint64_t> durs;
    std::atomic<std::size_t> next{0};
};

/** RAII span: times a scope into @p log when log is non-null. */
class Span
{
  public:
    explicit Span(SpanLog *log) : _log(log), t0(log ? nowNs() : 0) {}
    ~Span()
    {
        if (_log != nullptr)
            _log->record(t0, nowNs() - t0);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *_log;
    std::uint64_t t0;
};

/**
 * Hardware counters of this process and the threads it creates
 * after open() (perf_event_open, user space only). An event the
 * kernel refuses, or one that counts nothing, reads as unavailable.
 */
class HwCounters
{
  public:
    static constexpr std::size_t numEvents = 6;
    static const char *const names[numEvents];

    HwCounters() = default;
    ~HwCounters();
    HwCounters(const HwCounters &) = delete;
    HwCounters &operator=(const HwCounters &) = delete;

    /** Open every event; call before the worker threads start. */
    void open();
    /** Current scaled counts; a negative entry is unavailable. */
    std::vector<double> read() const;
    /** Why an event is unavailable ("" when it is available). */
    const std::string &status(std::size_t i) const { return why[i]; }

  private:
    int fds[numEvents] = {-1, -1, -1, -1, -1, -1};
    std::string why[numEvents];
};

/**
 * Report the six hw.*_per_op metrics: counter deltas between
 * @p before and @p after divided by @p ops. Unavailable events
 * report -1 and a note.
 */
void reportHw(Outcome &out, const HwCounters &hw,
              const std::vector<double> &before,
              const std::vector<double> &after, double ops);

// ---------------------------------------------------------------
// Seeded synthetic replay records.

/** Value k of the record written by append number @p append. */
inline Real
recordValue(std::uint64_t seed, std::uint64_t append, std::size_t k)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + append;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const std::uint64_t h = z + k * 0xd1b54a32d192ed03ULL;
    // 24 significant bits: exact in a float, in [-0.5, 0.5).
    return static_cast<Real>(static_cast<double>(h >> 40) *
                                 (1.0 / 16777216.0) -
                             0.5);
}

/** Fill @p rec (stride floats) with the record of @p append. */
void makeRecord(std::uint64_t seed, std::uint64_t append,
                std::size_t stride, Real *rec);

// ---------------------------------------------------------------
// Output checks. Each returns an empty string on success, else the
// first discrepancy. They are computed apart from the program and
// exercised against corrupted outputs by the self-test.

/**
 * Every row of @p batches (one AgentBatch per agent) equals the
 * record regenerated from @p seed and the last append number of the
 * slot the plan names, for a ring of @p capacity after @p appended
 * appends.
 */
std::string
checkGather(const marlin::replay::JointTransitionLayout &layout,
            const marlin::replay::IndexPlan &plan,
            const std::vector<marlin::replay::AgentBatch> &batches,
            std::uint64_t seed, std::uint64_t capacity,
            std::uint64_t appended);

/**
 * Plan indices are below @p size; importance weights lie in (0, 1]
 * with a maximum of exactly 1.
 */
std::string checkPlan(const marlin::replay::IndexPlan &plan,
                      std::uint64_t size);

/**
 * Chi-square goodness of fit of observed sampling counts against
 * expected shares; fails above the 0.001 critical value.
 */
std::string checkChiSquare(const std::vector<std::uint64_t> &counts,
                           const std::vector<double> &shares);

/**
 * Env-step and update counts a lockstep run must report after
 * @p episodes episodes of @p episode_len steps with updates every
 * @p update_every insertions once @p first_update insertions exist.
 */
std::string checkTrainCounts(std::uint64_t episodes,
                             std::uint64_t episode_len,
                             std::uint64_t first_update,
                             std::uint64_t update_every,
                             std::uint64_t env_steps,
                             std::uint64_t updates);

/** Every value is finite. */
std::string checkFinite(const std::vector<Real> &values,
                        const char *what);

/** The first @p n entries of @p a and @p b are bit-identical. */
std::string checkBitIdentical(const std::vector<Real> &a,
                              const std::vector<Real> &b,
                              std::size_t n);

/** A served action matches the double-precision reference. */
std::string checkAction(const Real *got, const double *want,
                        std::size_t n);

// ---------------------------------------------------------------
// Workloads.

void runTrain(const Options &opt, Outcome &out);
void runReplay(const Options &opt, Outcome &out);
void runServe(const Options &opt, Outcome &out);

/** Corrupt each checked output; every check must catch it. */
int runSelfTest();

} // namespace perfbench

#endif // MARLIN_PERFBENCH_BENCH_HH
