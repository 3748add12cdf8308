/**
 * @file
 * Two-level predictor implementation.
 */

#include "predict/twolevel.hh"

namespace bsisa
{

TwoLevelPredictor::TwoLevelPredictor(const PredictorConfig &config)
    : cfg(checkedPredictorConfig(config)), history(config),
      pht(std::size_t(1) << config.phtBits, SatCounter(2, 1)),
      btb(config)
{
}

bool
TwoLevelPredictor::predictTaken(std::uint64_t pc) const
{
    return pht[history.phtIndex(pc)].predictTaken();
}

bool
TwoLevelPredictor::predictTakenSpec(std::uint64_t pc,
                                    std::uint64_t &specHist) const
{
    const bool taken = pht[history.phtIndex(pc, specHist)].predictTaken();
    specHist = history.shifted(specHist, 1, taken);
    return taken;
}

void
TwoLevelPredictor::update(std::uint64_t pc, bool taken)
{
    pht[history.phtIndex(pc)].train(taken);
    history.shift(pc, 1, taken);
}

std::uint64_t
TwoLevelPredictor::predictTarget(std::uint64_t pc) const
{
    const BtbEntry *entry = btb.find(pc);
    return entry ? entry->target : ~0ull;
}

void
TwoLevelPredictor::updateTarget(std::uint64_t pc, std::uint64_t target)
{
    btb.access(pc).entry = {pc, target};
}

} // namespace bsisa
