/**
 * @file
 * replay-cn6-per: cooperative-navigation shapes at 6 agents in a
 * 4-shard, all-hot replay::ShardedStore prefilled with 2^20 seeded
 * synthetic joint records (about 1.9 GB), sampled by six PER
 * samplers. No network runs: replay does all the work.
 *
 * One round appends 100 records (each notifying all six samplers),
 * then for each of the 6 trainers plans a 1024-row PER batch,
 * gathers it across all agents and writes seeded |TD| priorities
 * back.
 */

#include "bench.hh"
#include "marlin/env/environment.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/trace.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/transition_ring.hh"
#include "wrappers.hh"

namespace perfbench
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kShards = 4;
constexpr BufferIndex kCapacity = BufferIndex(1) << 20;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kAppendsPerRound = 100;
constexpr std::size_t kSetups = 3;

/** Store, samplers and the round's per-trainer scratch. */
struct Rig
{
    std::unique_ptr<replay::ShardedStore> store;
    std::unique_ptr<TimedStore> timed;
    std::vector<std::unique_ptr<TimedSampler>> samplers;
    std::vector<Rng> planRngs;
    Rng tdRng;
    std::vector<replay::IndexPlan> plans;
    std::vector<std::vector<replay::AgentBatch>> batches;
    std::vector<Real> td;
    std::vector<Real> record;
    std::uint64_t appended = 0;
};

std::vector<replay::TransitionShape>
shapes(std::uint64_t seed)
{
    const auto environment =
        env::makeCooperativeNavigationEnv(kAgents, seed);
    std::vector<replay::TransitionShape> out;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        out.push_back({environment->obsDim(i), environment->actionDim()});
    return out;
}

/** Append the next seeded record, notifying every sampler. */
inline void
appendNext(Rig &rig, std::uint64_t seed)
{
    const replay::JointTransitionLayout &layout = rig.store->layout();
    makeRecord(seed, rig.appended, layout.stride, rig.record.data());
    const BufferIndex slot = rig.timed->writeCursor();
    rig.timed->appendRecord(layout, rig.record.data());
    for (auto &s : rig.samplers)
        s->onAdd(slot);
    ++rig.appended;
}

std::unique_ptr<Rig>
buildRig(std::uint64_t seed, const std::vector<replay::TransitionShape> &sh,
         const Probes &probes)
{
    auto rig = std::make_unique<Rig>();
    replay::ShardedStoreConfig sc;
    sc.shards = kShards;
    rig->store = std::make_unique<replay::ShardedStore>(sh, kCapacity, sc);
    rig->timed = std::make_unique<TimedStore>(*rig->store, probes);
    replay::PerConfig per;
    per.capacity = kCapacity;
    for (std::size_t t = 0; t < kAgents; ++t) {
        rig->samplers.push_back(std::make_unique<TimedSampler>(
            std::make_unique<replay::PrioritizedSampler>(per), probes));
        rig->planRngs.emplace_back(seed * 1000003 + t);
    }
    rig->tdRng.seed(seed ^ 0x7d7d7d7dULL);
    rig->plans.resize(kAgents);
    rig->batches.resize(kAgents);
    rig->td.resize(kBatch);
    rig->record.resize(rig->store->layout().stride);
    // The write path: prefill the whole ring.
    for (BufferIndex i = 0; i < kCapacity; ++i)
        appendNext(*rig, seed);
    return rig;
}

/** One round; returns its wall time in ns. */
std::uint64_t
round(Rig &rig, std::uint64_t seed, SpanLog *append_blocks)
{
    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < kAppendsPerRound; ++i)
        appendNext(rig, seed);
    if (append_blocks != nullptr)
        append_blocks->record(t0, nowNs() - t0);
    for (std::size_t t = 0; t < kAgents; ++t) {
        replay::IndexPlan &plan = rig.plans[t];
        rig.samplers[t]->planInto(rig.timed->size(), kBatch,
                                  rig.planRngs[t], plan);
        rig.timed->gatherAll(plan, rig.batches[t], nullptr);
        for (Real &v : rig.td)
            v = static_cast<Real>(rig.tdRng.uniform(0.01, 2.0));
        rig.samplers[t]->updatePriorities(plan.priorityIds, rig.td);
    }
    return nowNs() - t0;
}

/** Verify every plan and every gathered row of the last round. */
std::string
verifyRound(const Rig &rig, std::uint64_t seed)
{
    for (std::size_t t = 0; t < kAgents; ++t) {
        std::string why = checkPlan(rig.plans[t], rig.store->size());
        if (why.empty())
            why = checkGather(rig.store->layout(), rig.plans[t],
                              rig.batches[t], seed, kCapacity,
                              rig.appended);
        if (!why.empty())
            return "trainer " + std::to_string(t) + ": " + why;
    }
    return "";
}

/**
 * On a small store, PER sampling frequencies match
 * p^alpha / sum p^alpha.
 */
std::string
chiSquareCheck(std::uint64_t seed)
{
    constexpr std::size_t n = 64;
    replay::PerConfig per;
    per.capacity = n;
    replay::PrioritizedSampler sampler(per);
    for (std::size_t i = 0; i < n; ++i)
        sampler.onAdd(i);
    Rng rng(seed + 17);
    std::vector<BufferIndex> ids(n);
    std::vector<Real> td(n);
    std::vector<double> shares(n);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ids[i] = i;
        td[i] = static_cast<Real>(rng.uniform(0.05, 3.0));
        shares[i] = std::pow(static_cast<double>(td[i]) +
                                 static_cast<double>(per.epsilon),
                             static_cast<double>(per.alpha));
        total += shares[i];
    }
    for (double &s : shares)
        s /= total;
    sampler.updatePriorities(ids, td);
    std::vector<std::uint64_t> counts(n, 0);
    replay::IndexPlan plan;
    for (std::size_t k = 0; k < 64; ++k) {
        sampler.planInto(n, kBatch, rng, plan);
        const std::string why = checkPlan(plan, n);
        if (!why.empty())
            return why;
        for (BufferIndex idx : plan.indices)
            ++counts[idx];
    }
    return checkChiSquare(counts, shares);
}

} // namespace

void
runReplay(const Options &opt, Outcome &out)
{
    HwCounters hw;
    if (opt.trace)
        hw.open();
    const auto sh = shapes(opt.seed);
    Probes probes;

    std::vector<double> setups, prefill_rates;
    std::unique_ptr<Rig> rig;
    for (std::size_t k = 0; k < kSetups; ++k) {
        rig.reset();
        const std::uint64_t t0 = nowNs();
        rig = buildRig(opt.seed, sh, probes);
        const double s = static_cast<double>(nowNs() - t0) * 1e-9;
        setups.push_back(s);
        prefill_rates.push_back(static_cast<double>(kCapacity) / s);
    }
    out.set("setup_s", median(setups));
    out.set("replay.prefill_appends_per_s", median(prefill_rates));

    // One run of rounds: timed, each verified outside its timing.
    auto phase = [&](double seconds, std::vector<double> &round_us,
                     SpanLog *append_blocks) {
        const std::uint64_t t0 = nowNs();
        const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
        do {
            round_us.push_back(
                static_cast<double>(round(*rig, opt.seed, append_blocks)) *
                1e-3);
            ++out.attempted;
            const std::string why = verifyRound(*rig, opt.seed);
            out.check(why.empty(), why);
        } while (nowNs() - t0 < limit);
    };

    std::vector<double> round_us;
    round_us.reserve(1 << 20);
    phase(opt.seconds, round_us, nullptr);
    double sum_us = 0;
    for (double v : round_us)
        sum_us += v;
    const double rows =
        static_cast<double>(round_us.size() * kAgents * kBatch);
    const double plain_tp = rows / (sum_us * 1e-6);
    out.set("throughput_per_s", plain_tp);
    out.set("latency_p50_us", median(round_us));
    out.notes.push_back("replay-cn6-per: " +
                        std::to_string(round_us.size()) +
                        " rounds, record stride " +
                        std::to_string(rig->store->layout().stride) +
                        " floats");

    if (opt.trace) {
        SpanLog planLog("plan", 1 << 20);
        SpanLog gatherLog("gather_all", 1 << 20);
        SpanLog priorityLog("update_priorities", 1 << 20);
        SpanLog appendLog("append_block", 1 << 20);
        probes.plan = &planLog;
        probes.gather = &gatherLog;
        probes.priority = &priorityLog;
        obs::TraceRing::enable(1 << 17);
        auto &finds =
            obs::Registry::instance().counter("replay.sumtree.finds");
        auto &depth =
            obs::Registry::instance().counter("replay.sumtree.depth_total");
        const double finds0 = static_cast<double>(finds.value());
        const double depth0 = static_cast<double>(depth.value());
        std::vector<double> traced_us;
        traced_us.reserve(1 << 20);
        const std::vector<double> hw0 = hw.read();
        phase(opt.seconds, traced_us, &appendLog);
        const std::vector<double> hw1 = hw.read();
        probes = Probes{};

        double traced_sum = 0;
        for (double v : traced_us)
            traced_sum += v;
        const double traced_rows =
            static_cast<double>(traced_us.size() * kAgents * kBatch);
        const double bytes_per_gather =
            static_cast<double>(kBatch * rig->store->layout().stride *
                                sizeof(Real));
        out.set("replay.plan_us", median(planLog.durationsUs()));
        out.set("replay.gather_us", median(gatherLog.durationsUs()));
        out.set("replay.gather_gbps",
                bytes_per_gather * static_cast<double>(gatherLog.size()) /
                    gatherLog.totalSeconds() * 1e-9);
        out.set("replay.priority_update_us",
                median(priorityLog.durationsUs()));
        out.set("replay.append_us", median(appendLog.durationsUs()));
        out.set("replay.sumtree_depth_per_find",
                (static_cast<double>(depth.value()) - depth0) /
                    (static_cast<double>(finds.value()) - finds0));
        out.set("replay.round_p99_us", quantile(traced_us, 0.99));
        out.set("latency_samples", static_cast<double>(traced_us.size()));
        reportHw(out, hw, hw0, hw1, static_cast<double>(traced_us.size()));
        const double traced_tp = traced_rows / (traced_sum * 1e-6);
        out.set("trace.overhead_pct",
                (plain_tp - traced_tp) / plain_tp * 100);
        const std::string path = opt.outDir + "/replay-cn6-per.trace.json";
        std::string err;
        out.check(obs::exportTrace(path, &err), "trace export: " + err);
        obs::TraceRing::disable();
        out.notes.push_back("trace: " + path);
    }

    out.set("peak_rss_mb", peakRssMb());
    const std::string chi = chiSquareCheck(opt.seed);
    out.check(chi.empty(), chi);
}

} // namespace perfbench
