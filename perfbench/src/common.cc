#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "marlin/obs/trace.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/sampler.hh"
#include "marlin/replay/transition_ring.hh"

namespace perfbench
{

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    if (correct || notes.size() < 16)
        notes.push_back("CHECK FAILED: " + what);
    correct = false;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return -1;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb(int pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return -1;
}

// ---------------------------------------------------------------

SpanLog::SpanLog(const char *trace_name, std::size_t capacity)
    : name(trace_name), starts(capacity), durs(capacity)
{
}

void
SpanLog::record(std::uint64_t start_ns, std::uint64_t dur_ns) noexcept
{
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i < starts.size()) {
        starts[i] = start_ns;
        durs[i] = dur_ns;
    }
    if (name != nullptr)
        marlin::obs::recordSpan(name, "bench", start_ns, dur_ns);
}

std::size_t
SpanLog::size() const
{
    return std::min(next.load(std::memory_order_relaxed),
                    starts.size());
}

std::size_t
SpanLog::dropped() const
{
    const std::size_t n = next.load(std::memory_order_relaxed);
    return n > starts.size() ? n - starts.size() : 0;
}

void
SpanLog::clear()
{
    next.store(0, std::memory_order_relaxed);
}

std::vector<double>
SpanLog::durationsUs() const
{
    std::vector<double> out(size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<double>(durs[i]) * 1e-3;
    return out;
}

double
SpanLog::totalSeconds() const
{
    double total = 0;
    for (std::size_t i = 0; i < size(); ++i)
        total += static_cast<double>(durs[i]);
    return total * 1e-9;
}

// ---------------------------------------------------------------

const char *const HwCounters::names[numEvents] = {
    "hw.instructions_per_op", "hw.cycles_per_op",
    "hw.cache_misses_per_op", "hw.l1d_misses_per_op",
    "hw.dtlb_misses_per_op",  "hw.branch_misses_per_op",
};

HwCounters::~HwCounters()
{
    for (int fd : fds) {
        if (fd >= 0)
            ::close(fd);
    }
}

void
HwCounters::open()
{
    constexpr std::uint64_t readMiss =
        (PERF_COUNT_HW_CACHE_OP_READ << 8) |
        (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
    const std::uint32_t types[numEvents] = {
        PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE, PERF_TYPE_HARDWARE,
        PERF_TYPE_HW_CACHE, PERF_TYPE_HW_CACHE, PERF_TYPE_HARDWARE};
    const std::uint64_t configs[numEvents] = {
        PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CPU_CYCLES,
        PERF_COUNT_HW_CACHE_MISSES,
        PERF_COUNT_HW_CACHE_L1D | readMiss,
        PERF_COUNT_HW_CACHE_DTLB | readMiss,
        PERF_COUNT_HW_BRANCH_MISSES};
    for (std::size_t i = 0; i < numEvents; ++i) {
        perf_event_attr attr;
        std::memset(&attr, 0, sizeof(attr));
        attr.size = sizeof(attr);
        attr.type = types[i];
        attr.config = configs[i];
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        // Count the pool's worker threads too (created after this).
        attr.inherit = 1;
        attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
        const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1,
                                  -1, 0);
        if (fd < 0) {
            why[i] = std::string("perf_event_open: ") +
                     std::strerror(errno);
        } else {
            fds[i] = static_cast<int>(fd);
        }
    }
}

std::vector<double>
HwCounters::read() const
{
    std::vector<double> out(numEvents, -1.0);
    for (std::size_t i = 0; i < numEvents; ++i) {
        if (fds[i] < 0)
            continue;
        std::uint64_t v[3] = {0, 0, 0};
        if (::read(fds[i], v, sizeof(v)) != sizeof(v) || v[2] == 0)
            continue;
        // Scale for multiplexing: count * enabled / running.
        out[i] = static_cast<double>(v[0]) *
                 (static_cast<double>(v[1]) /
                  static_cast<double>(v[2]));
    }
    return out;
}

void
reportHw(Outcome &out, const HwCounters &hw,
         const std::vector<double> &before,
         const std::vector<double> &after, double ops)
{
    for (std::size_t i = 0; i < HwCounters::numEvents; ++i) {
        const double delta = after[i] - before[i];
        if (before[i] < 0 || after[i] < 0 || delta <= 0 || ops <= 0) {
            out.set(HwCounters::names[i], -1);
            out.notes.push_back(
                std::string(HwCounters::names[i]) + " unavailable (" +
                (hw.status(i).empty() ? "event counted nothing"
                                      : hw.status(i)) +
                ")");
            continue;
        }
        out.set(HwCounters::names[i], delta / ops);
    }
}

// ---------------------------------------------------------------

void
makeRecord(std::uint64_t seed, std::uint64_t append,
           std::size_t stride, Real *rec)
{
    for (std::size_t k = 0; k < stride; ++k)
        rec[k] = recordValue(seed, append, k);
}

namespace
{

std::string
format(const char *fmt, double a, double b, double c)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
    return buf;
}

/** Compare @p n gathered floats against the regenerated record. */
bool
sameAsRecord(const Real *got, std::uint64_t seed, std::uint64_t append,
             std::size_t offset, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        if (got[k] != recordValue(seed, append, offset + k))
            return false;
    }
    return true;
}

} // namespace

std::string
checkGather(const marlin::replay::JointTransitionLayout &layout,
            const marlin::replay::IndexPlan &plan,
            const std::vector<marlin::replay::AgentBatch> &batches,
            std::uint64_t seed, std::uint64_t capacity,
            std::uint64_t appended)
{
    if (batches.size() != layout.agents.size())
        return "gather returned the wrong number of agent batches";
    for (std::size_t b = 0; b < plan.indices.size(); ++b) {
        const std::uint64_t slot = plan.indices[b];
        if (slot >= capacity || slot >= appended)
            return "gathered slot never written";
        // Last append that landed on this ring slot.
        const std::uint64_t append =
            slot + capacity * ((appended - 1 - slot) / capacity);
        for (std::size_t a = 0; a < batches.size(); ++a) {
            const auto &blk = layout.agents[a];
            const auto &batch = batches[a];
            const bool ok =
                sameAsRecord(batch.obs.row(b), seed, append, blk.obs,
                             blk.obsDim) &&
                sameAsRecord(batch.actions.row(b), seed, append,
                             blk.act, blk.actDim) &&
                sameAsRecord(batch.rewards.row(b), seed, append,
                             blk.reward, 1) &&
                sameAsRecord(batch.nextObs.row(b), seed, append,
                             blk.nextObs, blk.obsDim) &&
                sameAsRecord(batch.dones.row(b), seed, append,
                             blk.done, 1);
            if (!ok) {
                return format("gathered row %.0f (slot %.0f, agent "
                              "%.0f) differs from its record",
                              static_cast<double>(b),
                              static_cast<double>(slot),
                              static_cast<double>(a));
            }
        }
    }
    return "";
}

std::string
checkPlan(const marlin::replay::IndexPlan &plan, std::uint64_t size)
{
    Real max_w = 0;
    for (std::size_t b = 0; b < plan.indices.size(); ++b) {
        if (plan.indices[b] >= size) {
            return format("plan index %.0f >= size %.0f",
                          static_cast<double>(plan.indices[b]),
                          static_cast<double>(size), 0);
        }
    }
    for (Real w : plan.weights) {
        if (!(w > Real(0) && w <= Real(1)))
            return format("importance weight %g outside (0, 1]", w, 0,
                          0);
        max_w = std::max(max_w, w);
    }
    if (!plan.weights.empty() && max_w != Real(1))
        return format("largest importance weight is %g, not 1", max_w,
                      0, 0);
    return "";
}

std::string
checkChiSquare(const std::vector<std::uint64_t> &counts,
               const std::vector<double> &shares)
{
    double total = 0;
    for (std::uint64_t c : counts)
        total += static_cast<double>(c);
    double chi2 = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double expect = shares[i] * total;
        const double d = static_cast<double>(counts[i]) - expect;
        chi2 += d * d / expect;
    }
    // Wilson-Hilferty approximation of the 0.999 quantile.
    const double k = static_cast<double>(counts.size() - 1);
    const double z = 3.090232;
    const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    const double critical = k * t * t * t;
    if (!(chi2 <= critical)) {
        return format("sampling frequencies fail chi-square: %.1f > "
                      "%.1f (df %.0f)",
                      chi2, critical, k);
    }
    return "";
}

std::string
checkTrainCounts(std::uint64_t episodes, std::uint64_t episode_len,
                 std::uint64_t first_update, std::uint64_t update_every,
                 std::uint64_t env_steps, std::uint64_t updates)
{
    const std::uint64_t steps = episodes * episode_len;
    const std::uint64_t expect_updates =
        steps < first_update
            ? 0
            : 1 + (steps - first_update) / update_every;
    if (env_steps != steps)
        return format("env steps %.0f, expected %.0f",
                      static_cast<double>(env_steps),
                      static_cast<double>(steps), 0);
    if (updates != expect_updates)
        return format("updates %.0f, expected %.0f",
                      static_cast<double>(updates),
                      static_cast<double>(expect_updates), 0);
    return "";
}

std::string
checkFinite(const std::vector<Real> &values, const char *what)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i]))
            return std::string(what) + " " + std::to_string(i) +
                   " is not finite";
    }
    return "";
}

std::string
checkBitIdentical(const std::vector<Real> &a, const std::vector<Real> &b,
                  std::size_t n)
{
    if (a.size() < n || b.size() < n)
        return "reward prefix shorter than " + std::to_string(n);
    if (std::memcmp(a.data(), b.data(), n * sizeof(Real)) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            if (std::memcmp(&a[i], &b[i], sizeof(Real)) != 0)
                return format("episode %.0f reward differs: %.9g vs "
                              "%.9g",
                              static_cast<double>(i), a[i], b[i]);
        }
    }
    return "";
}

std::string
checkAction(const Real *got, const double *want, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        const double tol = 1e-4 * (1.0 + std::fabs(want[k]));
        if (!(std::fabs(static_cast<double>(got[k]) - want[k]) <= tol))
            return format("action %.0f is %.9g, reference %.9g",
                          static_cast<double>(k), got[k], want[k]);
    }
    return "";
}

} // namespace perfbench
