/**
 * @file
 * Block predictor implementation.
 */

#include "predict/blockpred.hh"

#include "support/logging.hh"

namespace bsisa
{

BlockPredictor::BlockPredictor(const PredictorConfig &config)
    : cfg(checkedPredictorConfig(config)), history(config),
      pht(std::size_t(1) << config.phtBits), btb(config)
{
}

BlockPredictor::Probe
BlockPredictor::probe(std::uint64_t pc) const
{
    const PhtEntry &counters = pht[history.phtIndex(pc)];
    Probe r;
    r.pred.trapTaken = counters.trap.predictTaken();
    r.pred.variantBits = (counters.variant1.predictTaken() ? 2u : 0u) |
                         (counters.variant0.predictTaken() ? 1u : 0u);
    if (const BtbEntry *entry = btb.find(pc)) {
        r.btb.succ = entry->succ.data();
        r.btb.lastSucc = entry->lastSucc;
        r.btb.knownMask = entry->knownMask;
    }
    return r;
}

void
BlockPredictor::update(std::uint64_t pc, const Prediction &actual,
                       unsigned succBits, unsigned succIndex)
{
    PhtEntry &entry = pht[history.phtIndex(pc)];
    entry.trap.train(actual.trapTaken);
    entry.variant1.train((actual.variantBits & 2) != 0);
    entry.variant0.train((actual.variantBits & 1) != 0);
    // Shift in exactly succBits history bits (modification 3).
    history.shift(pc, succBits, succIndex);
}

void
BlockPredictor::install(std::uint64_t pc, unsigned slot,
                        std::uint64_t token)
{
    BSISA_ASSERT(slot < btbSuccessorSlots);
    const auto way = btb.access(pc);
    BtbEntry &entry = way.entry;
    if (!way.hit)
        entry = BtbEntry{pc, {}, 0, ~0ull};
    entry.succ[slot] = token;
    entry.knownMask |= 1u << slot;
    entry.lastSucc = token;
}

} // namespace bsisa
