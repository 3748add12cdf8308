/**
 * @file
 * The benchmark's three workloads and their golden checks.
 *
 *   paper-figures  Table 2 and Fig. 3-7 through the driver functions
 *                  users run, on a trace store warmed during set-up.
 *   design-sweep   the sweep service in-process on a 128-unit grid,
 *                  trace and results stores both starting empty.
 *   ooo-fig3       Fig. 3 on the out-of-order timing model, on a
 *                  trace store warmed during set-up.
 *
 * The simulated suite is the repository's fixed-seed SPECint95
 * stand-in at the default scale, so every output is pinned by a
 * golden.  The run's --seed permutes what may not change an output:
 * the driver call order, the store-fill order and the sweep spec's
 * axis order.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "traced.hh"

namespace perfbench
{

/** Outcome of one timed pass. */
struct PassResult
{
    double wallSeconds = 0.0;
    std::uint64_t attempted = 0;  //!< driver calls or work units
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  //!< one line per failure
};

/** Golden outputs of one workload: one file per output. */
class Goldens
{
  public:
    /** With @p writing set, the first match() of each name writes the
     *  file; later matches of that name compare against it. */
    Goldens(std::string dir, bool writing);

    /** True when @p actual equals golden @p name. */
    bool match(const std::string &name, const std::string &actual);

    /** The golden's bytes; throws when it is missing. */
    std::string read(const std::string &name) const;

  private:
    std::string dir;
    bool writing;
    std::set<std::string> written;
};

struct RunContext
{
    std::string workDir;    //!< temporary directory the run owns
    std::string goldenDir;  //!< this workload's goldens
    std::string specPath;   //!< design-sweep spec file
    std::uint64_t seed = 0;
    bool writeGoldens = false;
};

class Workload
{
  public:
    explicit Workload(const RunContext &ctx);
    virtual ~Workload() = default;

    /** Prepare fresh state for the passes that follow and return the
     *  seconds it took (the setup_s sample). */
    virtual double setUp(LayerCounters &counters) = 0;

    /** True when every pass consumes its own set-up. */
    virtual bool setUpEachPass() const = 0;

    /** One untimed-setup, timed pass through the public drivers. */
    virtual PassResult runPass() = 0;

    /** The traced rebuild of one pass. */
    virtual PassResult runTracedPass(LayerCounters &counters) = 0;

    /** Directory holding the current set-up's state, and the call a
     *  fresh process uses to run its pass on that state. */
    virtual std::string stateDir() const = 0;
    virtual void adopt(const std::string &dir) = 0;

    /** Committed ops one pass simulates (golden `retired_ops`). */
    std::uint64_t retiredOps() const;

  protected:
    /** Fail the whole traced pass unless the ops its SimResults
     *  committed match the golden. */
    void checkRetiredOps(std::uint64_t ops, PassResult &r);

    /** Deterministic stream of the run's seed. */
    std::uint64_t nextRandom();
    std::vector<std::size_t> permutation(std::size_t n);

    RunContext ctx;
    Goldens goldens;
    unsigned setUps = 0;

  private:
    std::uint64_t rngState;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** The workload names, in BENCHMARK.json order. */
extern const std::vector<std::string> workloadNames;

/** Throws on an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
