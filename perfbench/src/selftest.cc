/**
 * @file
 * Self-test of the output checks: each check passes on a correct
 * output and fails on a corrupted one (a flipped gathered float, an
 * out-of-range plan index, a bad importance weight, skewed sampling
 * frequencies, a missing update, a non-finite loss, a one-ulp
 * reward difference, a perturbed action).
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/transition_ring.hh"

namespace perfbench
{

namespace
{

int failures = 0;

/** The check must accept @p good and reject @p bad. */
void
expect(const char *what, const std::string &good, const std::string &bad)
{
    const bool ok = good.empty() && !bad.empty();
    std::printf("  %-44s %s%s%s\n", what, ok ? "ok" : "FAILED",
                bad.empty() ? "" : "  (caught: ",
                bad.empty() ? "" : (bad + ")").c_str());
    if (!good.empty())
        std::printf("    unexpected failure on good output: %s\n",
                    good.c_str());
    if (!ok)
        ++failures;
}

} // namespace

int
runSelfTest()
{
    using namespace marlin;
    std::printf("self-test: every check must reject a corrupted output\n");

    // Gather: a wrapped 2-shard ring of two agents.
    const std::uint64_t seed = 99;
    const BufferIndex capacity = 64;
    replay::ShardedStoreConfig sc;
    sc.shards = 2;
    replay::ShardedStore store({{3, 5}, {4, 5}}, capacity, sc);
    std::vector<Real> rec(store.layout().stride);
    const std::uint64_t appended = 150;
    for (std::uint64_t a = 0; a < appended; ++a) {
        makeRecord(seed, a, rec.size(), rec.data());
        store.appendRecord(store.layout(), rec.data());
    }
    replay::PerConfig per;
    per.capacity = capacity;
    replay::PrioritizedSampler sampler(per);
    for (BufferIndex i = 0; i < capacity; ++i)
        sampler.onAdd(i);
    Rng rng(5);
    replay::IndexPlan plan;
    sampler.planInto(store.size(), 32, rng, plan);
    std::vector<replay::AgentBatch> batches;
    store.gatherAll(plan, batches);
    const std::string good_gather = checkGather(
        store.layout(), plan, batches, seed, capacity, appended);
    std::vector<replay::AgentBatch> flipped = batches;
    Real &victim = flipped[1].nextObs(7, 2);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &victim, sizeof(bits));
    bits ^= 1u;
    std::memcpy(&victim, &bits, sizeof(bits));
    expect("gather: flipped float bit", good_gather,
           checkGather(store.layout(), plan, flipped, seed, capacity,
                       appended));
    expect("gather: stale record (wrong append count)", good_gather,
           checkGather(store.layout(), plan, batches, seed, capacity,
                       appended + 1));

    // Plans.
    const std::string good_plan = checkPlan(plan, store.size());
    replay::IndexPlan bad = plan;
    bad.indices[3] = store.size();
    expect("plan: index == size", good_plan, checkPlan(bad, store.size()));
    bad = plan;
    bad.weights[4] = Real(1.5);
    expect("plan: weight > 1", good_plan, checkPlan(bad, store.size()));
    bad = plan;
    for (Real &w : bad.weights)
        w *= Real(0.5);
    expect("plan: max weight != 1", good_plan,
           checkPlan(bad, store.size()));

    // Chi-square.
    const std::vector<double> shares = {0.1, 0.2, 0.3, 0.4};
    expect("chi-square: skewed frequencies",
           checkChiSquare({1000, 2000, 3000, 4000}, shares),
           checkChiSquare({1200, 2000, 3000, 3800}, shares));

    // Train counts: 49 episodes of 25 steps, first update at 1024.
    expect("train: missing update",
           checkTrainCounts(49, 25, 1024, 100, 1225, 3),
           checkTrainCounts(49, 25, 1024, 100, 1225, 2));
    expect("train: missing env step",
           checkTrainCounts(49, 25, 1024, 100, 1225, 3),
           checkTrainCounts(49, 25, 1024, 100, 1224, 3));
    expect("train: non-finite loss",
           checkFinite({Real(1), Real(-2)}, "loss"),
           checkFinite({Real(1), std::numeric_limits<Real>::quiet_NaN()},
                       "loss"));
    const std::vector<Real> rewards = {Real(-3.5), Real(-2.25), Real(-1)};
    std::vector<Real> drifted = rewards;
    drifted[1] = std::nextafter(drifted[1], Real(0));
    expect("train: one-ulp reward drift across threads",
           checkBitIdentical(rewards, rewards, 3),
           checkBitIdentical(rewards, drifted, 3));

    // Served actions.
    const double want[3] = {0.25, -1.5, 3.0};
    const Real exact[3] = {Real(0.25), Real(-1.5), Real(3.0)};
    const Real perturbed[3] = {Real(0.25), Real(-1.5), Real(3.001)};
    expect("serve: perturbed action", checkAction(exact, want, 3),
           checkAction(perturbed, want, 3));

    std::printf("self-test: %s\n", failures == 0 ? "all checks catch "
                                                   "their corruption"
                                                 : "FAILED");
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
