/**
 * @file
 * Forwarding wrappers around the program's public layer interfaces
 * (core::Trainer, replay::Sampler, replay::ReplayStore). Each call
 * goes straight to the wrapped object; when the matching Probes log
 * is set the call is also timed into it. Logs are preallocated, so
 * a wrapped call allocates exactly what the wrapped call allocates.
 */

#ifndef MARLIN_PERFBENCH_WRAPPERS_HH
#define MARLIN_PERFBENCH_WRAPPERS_HH

#include <memory>

#include "bench.hh"
#include "marlin/base/logging.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/replay/replay_store.hh"
#include "marlin/replay/sampler.hh"

namespace perfbench
{

/** Span logs the wrappers time into; null members record nothing. */
struct Probes
{
    SpanLog *select = nullptr;   ///< Trainer::selectActionsInto
    SpanLog *update = nullptr;   ///< Trainer::update
    SpanLog *plan = nullptr;     ///< Sampler::planInto
    SpanLog *priority = nullptr; ///< Sampler::updatePriorities
    SpanLog *gather = nullptr;   ///< ReplayStore::gatherAll
};

/** replay::Sampler wrapper. */
class TimedSampler : public marlin::replay::Sampler
{
  public:
    TimedSampler(std::unique_ptr<marlin::replay::Sampler> inner_in,
                 const Probes &probes_in)
        : inner(std::move(inner_in)), probes(probes_in)
    {
    }

    std::string name() const override { return inner->name(); }

    void
    planInto(marlin::BufferIndex buffer_size, std::size_t batch,
             marlin::Rng &rng, marlin::replay::IndexPlan &out) override
    {
        Span span(probes.plan);
        inner->planInto(buffer_size, batch, rng, out);
    }

    void
    reserve(marlin::BufferIndex capacity) override
    {
        inner->reserve(capacity);
    }

    void onAdd(marlin::BufferIndex idx) override { inner->onAdd(idx); }

    void
    updatePriorities(const std::vector<marlin::BufferIndex> &ids,
                     const std::vector<Real> &td) override
    {
        Span span(probes.priority);
        inner->updatePriorities(ids, td);
    }

    void
    saveState(std::ostream &os) const override
    {
        inner->saveState(os);
    }

    void loadState(std::istream &is) override { inner->loadState(is); }

  private:
    std::unique_ptr<marlin::replay::Sampler> inner;
    const Probes &probes;
};

/**
 * replay::ReplayStore wrapper (gatherAll timed). Built
 * over a const store it is a read-only view whose mutators panic.
 */
class TimedStore : public marlin::replay::ReplayStore
{
  public:
    TimedStore(marlin::replay::ReplayStore &inner_in,
               const Probes &probes_in)
        : inner(inner_in), writer(&inner_in), probes(probes_in)
    {
    }

    TimedStore(const marlin::replay::ReplayStore &inner_in,
               const Probes &probes_in)
        : inner(inner_in), probes(probes_in)
    {
    }

    const char *backendName() const override
    {
        return inner.backendName();
    }
    std::size_t numAgents() const override { return inner.numAgents(); }
    const marlin::replay::TransitionShape &
    agentShape(std::size_t agent) const override
    {
        return inner.agentShape(agent);
    }
    marlin::BufferIndex capacity() const override
    {
        return inner.capacity();
    }
    marlin::BufferIndex size() const override { return inner.size(); }
    marlin::BufferIndex writeCursor() const override
    {
        return inner.writeCursor();
    }

    void
    append(const std::vector<std::vector<Real>> &obs,
           const std::vector<std::vector<Real>> &actions,
           const std::vector<Real> &rewards,
           const std::vector<std::vector<Real>> &next_obs,
           const std::vector<bool> &dones) override
    {
        writable().append(obs, actions, rewards, next_obs, dones);
    }

    void
    appendRecord(const marlin::replay::JointTransitionLayout &layout,
                 const Real *rec) override
    {
        writable().appendRecord(layout, rec);
    }

    void
    gatherAgent(std::size_t agent, const marlin::replay::IndexPlan &plan,
                marlin::replay::AgentBatch &out,
                marlin::replay::AccessTrace *trace) const override
    {
        inner.gatherAgent(agent, plan, out, trace);
    }

    void
    gatherAll(const marlin::replay::IndexPlan &plan,
              std::vector<marlin::replay::AgentBatch> &out,
              marlin::replay::AccessTrace *trace) const override
    {
        Span span(probes.gather);
        inner.gatherAll(plan, out, trace);
    }

    std::size_t storageBytes() const override
    {
        return inner.storageBytes();
    }
    void saveState(std::ostream &os) const override
    {
        inner.saveState(os);
    }
    marlin::replay::StoreLoadResult
    loadState(std::istream &is) override
    {
        return writable().loadState(is);
    }

  private:
    marlin::replay::ReplayStore &
    writable()
    {
        if (writer == nullptr)
            marlin::panic("write through a read-only TimedStore");
        return *writer;
    }

    const marlin::replay::ReplayStore &inner;
    marlin::replay::ReplayStore *writer = nullptr;
    const Probes &probes;
};

/**
 * core::Trainer wrapper. update() hands the inner trainer a
 * TimedStore over the loop's store, so gathers made inside the
 * update are timed too; it also keeps every update's losses.
 */
class TimedTrainer : public marlin::core::Trainer
{
  public:
    TimedTrainer(marlin::core::CtdeTrainerBase &inner_in,
                 const Probes &probes_in, std::size_t max_updates)
        : inner(inner_in), probes(probes_in)
    {
        losses.reserve(2 * max_updates);
    }

    std::string name() const override { return inner.name(); }
    std::size_t numAgents() const override { return inner.numAgents(); }

    void
    selectActionsInto(const std::vector<std::vector<Real>> &obs,
                      std::size_t episode, std::vector<int> &out) override
    {
        Span span(probes.select);
        inner.selectActionsInto(obs, episode, out);
    }

    std::vector<int>
    greedyActions(const std::vector<std::vector<Real>> &obs) override
    {
        return inner.greedyActions(obs);
    }

    void
    onTransitionAdded(marlin::BufferIndex idx) override
    {
        inner.onTransitionAdded(idx);
    }

    marlin::core::UpdateStats
    update(const marlin::replay::ReplayStore &store,
           marlin::profile::PhaseTimer &timer) override
    {
        // A read-only view, rebuilt per call: it only holds references.
        const TimedStore timed(store, probes);
        Span span(probes.update);
        const marlin::core::UpdateStats stats =
            inner.update(timed, timer);
        ++updates;
        if (stats.nonFiniteCount > 0)
            ++nonFiniteUpdates;
        // Within the reserved capacity: no allocation.
        if (losses.size() + 2 <= losses.capacity()) {
            losses.push_back(stats.criticLoss);
            losses.push_back(stats.actorLoss);
        }
        return stats;
    }

    /** Critic and actor loss of every update, interleaved. */
    std::vector<Real> losses;
    std::uint64_t updates = 0;
    std::uint64_t nonFiniteUpdates = 0;

  private:
    marlin::core::CtdeTrainerBase &inner;
    const Probes &probes;
};

} // namespace perfbench

#endif // MARLIN_PERFBENCH_WRAPPERS_HH
