/**
 * @file
 * train-pp24: lockstep core::TrainLoop, MADDPG on predator-prey with
 * 24 trained agents at the paper's batch 1024, updates every 100
 * insertions, uniform sampling from the per-agent SoA store.
 *
 * Set-up builds the environment, trainer and loop and runs the
 * warm-up episodes through the first update. The timed phase then
 * runs whole update cycles (4 episodes = 100 steps = one update)
 * until the run length is reached.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/environment.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/trace.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "wrappers.hh"

namespace perfbench
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 24;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kEpisodeLen = 25;
constexpr std::size_t kUpdateEvery = 100;
constexpr std::size_t kWarmup = 1024;
/** 16384 joint transitions of 24 agents: about 330 MB of replay. */
constexpr BufferIndex kCapacity = 16384;
/** Episodes per update cycle: 100 insertions / 25 steps. */
constexpr std::size_t kCycleEpisodes = kUpdateEvery / kEpisodeLen;
/** Insertions before the first update. */
constexpr std::size_t kFirstUpdate =
    std::max({kWarmup, kBatch, kUpdateEvery});
/** Episodes through the first update (warm-up). */
constexpr std::size_t kWarmEpisodes =
    (kFirstUpdate + kEpisodeLen - 1) / kEpisodeLen;
/** Thread-invariance prefix: the warm-up plus one more update. */
constexpr std::size_t kPrefixEpisodes = kWarmEpisodes + kCycleEpisodes;
constexpr std::size_t kSetups = 3;

core::TrainConfig
trainConfig(std::uint64_t seed)
{
    core::TrainConfig c;
    c.batchSize = kBatch;
    c.bufferCapacity = kCapacity;
    c.updateEvery = kUpdateEvery;
    c.warmupTransitions = kWarmup;
    c.maxEpisodeLength = kEpisodeLen;
    c.seed = seed;
    return c;
}

/** One environment + trainer + loop, wrapped for timing. */
struct Rig
{
    std::unique_ptr<env::Environment> environment;
    std::unique_ptr<core::MaddpgTrainer> trainer;
    std::unique_ptr<TimedTrainer> timed;
    std::unique_ptr<core::TrainLoop> loop;
    core::TrainResult last;
};

std::unique_ptr<Rig>
buildRig(std::uint64_t seed, const Probes *probes)
{
    auto rig = std::make_unique<Rig>();
    rig->environment = env::makePredatorPreyEnv(kAgents, seed);
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < rig->environment->numAgents(); ++i)
        dims.push_back(rig->environment->obsDim(i));
    core::SamplerFactory factory;
    if (probes != nullptr) {
        factory = [probes] {
            return std::make_unique<TimedSampler>(
                std::make_unique<replay::UniformSampler>(), *probes);
        };
    } else {
        factory = [] {
            return std::make_unique<replay::UniformSampler>();
        };
    }
    const core::TrainConfig config = trainConfig(seed);
    rig->trainer = std::make_unique<core::MaddpgTrainer>(
        dims, rig->environment->actionDim(), config, factory);
    core::Trainer *driven = rig->trainer.get();
    if (probes != nullptr) {
        rig->timed = std::make_unique<TimedTrainer>(*rig->trainer,
                                                    *probes, 100000);
        driven = rig->timed.get();
    }
    rig->loop = std::make_unique<core::TrainLoop>(*rig->environment,
                                                  *driven, config);
    return rig;
}

/** Multiply-adds of one MADDPG update, from the layer shapes. */
double
updateMacs(const std::vector<std::size_t> &obs_dims, std::size_t act)
{
    const double h1 = 64, h2 = 64;
    double joint = 0, actors = 0;
    for (std::size_t o : obs_dims) {
        joint += static_cast<double>(o + act);
        actors += static_cast<double>(o) * h1 + h1 * h2 +
                  h2 * static_cast<double>(act);
    }
    const double critic = joint * h1 + h1 * h2 + h2;
    const double n = static_cast<double>(obs_dims.size());
    // Per agent: every target actor forward (the serial prologue),
    // then target-critic forward, critic forward + backward, actor
    // forward, critic forward + backward on the policy joint, actor
    // backward. A backward pass counts twice its forward (weight
    // and input gradients).
    return static_cast<double>(kBatch) *
           (n * actors + n * 7 * critic + 3 * actors);
}

struct PhaseResult
{
    double wallS = 0;
    std::uint64_t steps = 0;
    std::uint64_t updates = 0;
    profile::PhaseTimer cpu;
    std::uint64_t steadyAllocs = 0;
};

/** Run whole update cycles until @p seconds of wall time passed. */
PhaseResult
timedPhase(Rig &rig, double seconds)
{
    PhaseResult r;
    const std::uint64_t steps0 = rig.last.envSteps;
    const std::uint64_t updates0 = rig.last.updateCalls;
    const std::uint64_t t0 = nowNs();
    const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
    do {
        rig.last = rig.loop->run(rig.loop->episodesCompleted() +
                                 kCycleEpisodes);
        r.cpu.merge(rig.last.timer);
        r.steadyAllocs += rig.last.steadyStateAllocs;
    } while (nowNs() - t0 < limit);
    r.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    r.steps = rig.last.envSteps - steps0;
    r.updates = rig.last.updateCalls - updates0;
    return r;
}

SpanLog *g_chunks = nullptr;

void
chunkHook(std::uint64_t start_ns, std::uint64_t dur_ns)
{
    g_chunks->record(start_ns, dur_ns);
}

/** Sum of kernels.*.elems counters. */
double
kernelElements()
{
    double total = 0;
    for (const obs::MetricSample &s :
         obs::Registry::instance().snapshot()) {
        if (s.kind == obs::MetricSample::Kind::Counter &&
            s.name.rfind("kernels.", 0) == 0 &&
            s.name.size() > 6 &&
            s.name.compare(s.name.size() - 6, 6, ".elems") == 0)
            total += static_cast<double>(s.count);
    }
    return total;
}

double
counterValue(const char *name)
{
    return static_cast<double>(
        obs::Registry::instance().counter(name).value());
}

/**
 * Pool coverage of every update span: wall not covered by any pool
 * chunk (serial) and summed chunk time (busy).
 */
void
poolCoverage(const SpanLog &updates, const SpanLog &chunks,
             double &serial_s, double &busy_s, double &wall_s)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv(
        chunks.size());
    for (std::size_t i = 0; i < iv.size(); ++i)
        iv[i] = {chunks.start(i), chunks.start(i) + chunks.duration(i)};
    std::sort(iv.begin(), iv.end());
    serial_s = busy_s = wall_s = 0;
    for (std::size_t u = 0; u < updates.size(); ++u) {
        const std::uint64_t s = updates.start(u);
        const std::uint64_t e = s + updates.duration(u);
        auto it = std::lower_bound(
            iv.begin(), iv.end(),
            std::pair<std::uint64_t, std::uint64_t>{s, 0});
        std::uint64_t covered = 0, busy = 0, reach = s;
        for (; it != iv.end() && it->first < e; ++it) {
            const std::uint64_t a = std::max(it->first, reach);
            const std::uint64_t b = std::min(it->second, e);
            busy += std::min(it->second, e) - it->first;
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        wall_s += static_cast<double>(e - s) * 1e-9;
        serial_s += static_cast<double>(e - s - covered) * 1e-9;
        busy_s += static_cast<double>(busy) * 1e-9;
    }
}

} // namespace

void
runTrain(const Options &opt, Outcome &out)
{
    const std::size_t threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
    HwCounters hw;
    if (opt.trace)
        hw.open(); // Before the pool threads exist, so they count.
    base::ThreadPool::setGlobalThreads(threads);

    SpanLog updateLog(nullptr, 100000);
    Probes probes;
    probes.update = &updateLog;

    // Set-up, several times; the last rig is kept for the timing.
    std::vector<double> setups;
    std::unique_ptr<Rig> rig;
    for (std::size_t k = 0; k < kSetups; ++k) {
        rig.reset();
        const std::uint64_t t0 = nowNs();
        rig = buildRig(opt.seed, &probes);
        rig->last = rig->loop->run(kWarmEpisodes);
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    out.set("setup_s", median(setups));

    updateLog.clear();
    const PhaseResult plain = timedPhase(*rig, opt.seconds);
    const std::vector<double> update_us = updateLog.durationsUs();
    const double update_wall_s = updateLog.totalSeconds();
    out.set("throughput_per_s",
            static_cast<double>(plain.steps) / plain.wallS);
    out.set("latency_p50_us", median(update_us));
    out.notes.push_back("train-pp24: " + std::to_string(plain.updates) +
                        " updates, " + std::to_string(plain.steps) +
                        " env steps in " + std::to_string(plain.wallS) +
                        " s at " + std::to_string(threads) + " threads");

    if (opt.trace) {
        SpanLog selectLog("select_actions", 1 << 20);
        SpanLog planLog("plan", 1 << 20);
        SpanLog gatherLog("gather_all", 1 << 20);
        SpanLog tracedUpdates("update", 100000);
        SpanLog chunkLog("pool_chunk", 1 << 22);
        probes.select = &selectLog;
        probes.plan = &planLog;
        probes.gather = &gatherLog;
        probes.update = &tracedUpdates;
        g_chunks = &chunkLog;
        obs::TraceRing::enable(1 << 17);
        base::ThreadPool::setTaskHook(&chunkHook);
        numeric::kernels::setCounting(true);
        // One untimed cycle first: the counting shim registers its
        // counters on first use, and those allocations belong to
        // switching tracing on, not to the steady state.
        timedPhase(*rig, 0);
        selectLog.clear();
        planLog.clear();
        gatherLog.clear();
        tracedUpdates.clear();
        chunkLog.clear();

        const double elems0 = kernelElements();
        const double bytes0 = counterValue("replay.gather.bytes");
        const std::vector<double> hw0 = hw.read();
        const PhaseResult traced = timedPhase(*rig, opt.seconds);
        const std::vector<double> hw1 = hw.read();
        const double upd = static_cast<double>(traced.updates);

        base::ThreadPool::setTaskHook(nullptr);
        numeric::kernels::setCounting(false);
        probes = Probes{};
        probes.update = &updateLog;

        out.set("core.select_actions_us", median(selectLog.durationsUs()));
        out.set("core.rollout_us_per_step",
                (traced.wallS - tracedUpdates.totalSeconds()) * 1e6 /
                    static_cast<double>(traced.steps));
        using profile::Phase;
        out.set("core.cpu_s.sampling",
                traced.cpu.seconds(Phase::Sampling) / upd);
        out.set("core.cpu_s.target_q",
                traced.cpu.seconds(Phase::TargetQ) / upd);
        out.set("core.cpu_s.qp_loss",
                traced.cpu.seconds(Phase::QPLoss) / upd);
        out.set("core.cpu_s.action_selection",
                traced.cpu.seconds(Phase::ActionSelection) / upd);
        out.set("core.cpu_s.other",
                (traced.cpu.seconds(Phase::EnvStep) +
                 traced.cpu.seconds(Phase::BufferAdd) +
                 traced.cpu.seconds(Phase::LayoutReorg)) /
                    upd);
        double serial_s = 0, busy_s = 0, wall_s = 0;
        poolCoverage(tracedUpdates, chunkLog, serial_s, busy_s, wall_s);
        out.set("base.serial_ms_per_update", serial_s * 1e3 / upd);
        out.set("base.pool_busy_share",
                busy_s / (static_cast<double>(threads) * wall_s));
        out.set("base.steady_state_allocs",
                static_cast<double>(plain.steadyAllocs +
                                    traced.steadyAllocs));
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < kAgents; ++i)
            dims.push_back(rig->environment->obsDim(i));
        out.set("numeric.gemm_gflops",
                2 * updateMacs(dims, rig->environment->actionDim()) * upd /
                    tracedUpdates.totalSeconds() * 1e-9);
        out.set("numeric.kernel_elements_per_update",
                (kernelElements() - elems0) / upd);
        out.set("replay.plan_us", median(planLog.durationsUs()));
        out.set("replay.gather_us", median(gatherLog.durationsUs()));
        out.set("replay.gather_bytes_per_update",
                (counterValue("replay.gather.bytes") - bytes0) / upd);
        out.set("latency_samples", static_cast<double>(update_us.size()));
        reportHw(out, hw, hw0, hw1, upd);
        const double plain_tp =
            static_cast<double>(plain.steps) / plain.wallS;
        const double traced_tp =
            static_cast<double>(traced.steps) / traced.wallS;
        out.set("trace.overhead_pct",
                (plain_tp - traced_tp) / plain_tp * 100);
        if (chunkLog.dropped() > 0 || selectLog.dropped() > 0)
            out.notes.push_back("span logs dropped spans");
        out.notes.push_back(
            "pool chunks: " + std::to_string(chunkLog.size()) +
            "; steady-state allocations untraced " +
            std::to_string(plain.steadyAllocs) + ", traced " +
            std::to_string(traced.steadyAllocs));
        const std::string path = opt.outDir + "/train-pp24.trace.json";
        std::string err;
        out.check(obs::exportTrace(path, &err), "trace export: " + err);
        obs::TraceRing::disable();
        out.notes.push_back("trace: " + path);
    }
    out.notes.push_back("update wall " + std::to_string(update_wall_s) +
                        " s of " + std::to_string(plain.wallS) + " s");

    // Output checks, computed apart from the program.
    const std::uint64_t episodes = rig->loop->episodesCompleted();
    const std::string counts_ok =
        checkTrainCounts(episodes, kEpisodeLen, kFirstUpdate, kUpdateEvery,
                         rig->last.envSteps, rig->last.updateCalls);
    out.check(counts_ok.empty(), counts_ok);
    out.check(rig->timed->updates == rig->last.updateCalls,
              "wrapper saw a different number of updates than the "
              "loop reports");
    const std::string rewards_ok =
        checkFinite(rig->last.episodeRewards, "episode reward");
    out.check(rewards_ok.empty(), rewards_ok);
    const std::string losses_ok = checkFinite(rig->timed->losses, "loss");
    out.check(losses_ok.empty(), losses_ok);
    // Every update of the kept rig, set-up and traced phase included.
    out.attempted = rig->timed->updates;
    out.failed = rig->timed->nonFiniteUpdates;
    out.set("peak_rss_mb", peakRssMb());

    // Thread invariance: the same prefix at one thread, bit for bit.
    const std::vector<Real> rewards4 = rig->last.episodeRewards;
    rig.reset();
    base::ThreadPool::setGlobalThreads(1);
    auto serial = buildRig(opt.seed, nullptr);
    const core::TrainResult one = serial->loop->run(kPrefixEpisodes);
    base::ThreadPool::setGlobalThreads(threads);
    const std::string same =
        checkBitIdentical(rewards4, one.episodeRewards, kPrefixEpisodes);
    out.check(same.empty(), "1 vs " + std::to_string(threads) +
                                " threads: " + same);
}

} // namespace perfbench
