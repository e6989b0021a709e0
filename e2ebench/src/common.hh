/**
 * @file
 * Shared plumbing of the benchmark binary: command-line arguments,
 * the metric catalogue (the names BENCHMARK.json declares), the
 * result report and its one-line JSON verdict, the run fingerprint,
 * the phase-timing observer and the layer probes every workload runs
 * in its traced invocation. The benchmark's own spans are obs
 * `TraceSpan`s in category "bench".
 *
 * Everything here drives the dosa library through its public headers
 * only; nothing is instrumented inside the library.
 */

#ifndef E2EBENCH_COMMON_HH
#define E2EBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/search_api.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats.hh"
#include "workload/layer.hh"

namespace e2e {

namespace obs = dosa::obs;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Parsed command line of one benchmark invocation. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace JSON of a traced run (empty = do not write). */
    std::string trace_out;
};

/** One catalogue entry: a metric name and its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: every untraced run reports all of them. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics: every traced run reports all of them. */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * The outcome of one invocation: output checks (as attempted/failed
 * operations), the metrics of the run's mode, and free-form report
 * lines. `finish` prints the report, then the one-line JSON verdict
 * last; a metric of the mode that was never set is a bug in the benchmark.
 */
class Report
{
  public:
    explicit Report(bool traced);

    /** Set a catalogue metric of this run's mode. */
    void set(const std::string &name, double value);

    /** Print one human-readable report line now (stdout). */
    void line(const std::string &text) const;

    /** The run's output checks. */
    Tally tally;

    /** Print the verdict; returns the process exit code. */
    int finish() const;

  private:
    bool traced_;
    std::map<std::string, std::string> units_;
    std::map<std::string, double> values_;
};

/** nproc, CPU model, compiler, build type, git sha and seed. */
std::string fingerprint(uint64_t seed);

/** Peak resident set size of this program in MiB (VmHWM). */
double peakRssMb();

/** Counters of the global obs registry (collectors included). */
std::map<std::string, uint64_t> counterSnapshot();

/** `after[name] - before[name]` (0 when absent). */
uint64_t counterDelta(const std::map<std::string, uint64_t> &before,
                      const std::map<std::string, uint64_t> &after,
                      const std::string &name);

/**
 * Times `runSearch` phases from outside: every `onPhase` closes the
 * previous phase. Totals are keyed "<algorithm>.<phase>" and
 * accumulate across the searches it observes; "done" closes the
 * last interior phase. In a traced run each phase also becomes a
 * bench span.
 */
class PhaseTimer : public dosa::SearchObserver
{
  public:
    /** Start observing one search of `algorithm`. */
    void begin(const std::string &algorithm);

    void onPhase(const char *phase) override;

    /** Add one search's `runSearch` wall time under `algorithm`. */
    void addWall(const std::string &algorithm, double seconds)
    {
        walls_[algorithm] += seconds;
    }

    /** Total `runSearch` seconds per algorithm. */
    const std::map<std::string, double> &walls() const { return walls_; }

    /** Total seconds per "<algorithm>.<phase>". */
    const std::map<std::string, double> &totals() const
    {
        return totals_;
    }

    /** Searches observed per "<algorithm>.setup". */
    const std::map<std::string, int> &counts() const { return counts_; }

  private:
    std::string algorithm_;
    std::string current_;
    Clock::time_point start_{};
    std::map<std::string, double> totals_;
    std::map<std::string, int> counts_;
    std::map<std::string, double> walls_;
};

/** Phase totals of `timer` into the `api.*`/`search.*` metrics. */
void reportPhases(Report &report, const PhaseTimer &timer);

/**
 * Layer probes over `layers` (the workload's own layers): GP fit/LCB
 * on BB-BO-shaped rows, objective build/eval/batch (analytical, and
 * with a learned latency model), reference eval, random mapping
 * sampling, rounding and divisor lookups. Without `dnn_model` a
 * surrogate/nn probe first generates the surrogate dataset, trains a
 * predictor and times its scorer (the `surrogate.*`, `nn.*`
 * metrics). Each probe runs inside a bench span.
 */
void runLayerProbes(Report &report,
                    const std::vector<dosa::Layer> &layers,
                    const dosa::DiffLatencyModel *dnn_model,
                    uint64_t seed);

/**
 * Report the `api.*`, `objective.*`, `divisors.*` and `exec.pool.*`
 * counter deltas, and the eval cache's stats since its last reset.
 */
void reportCounters(Report &report,
                    const std::map<std::string, uint64_t> &before,
                    const std::map<std::string, uint64_t> &after);

/** Stop the tracer and write its Chrome JSON to `path` (if set). */
void dumpTrace(const Report &report, const std::string &path);

/** Fail unless `best_edp` is the trace minimum and the trace has
 *  `planned` entries. */
void checkTrace(Report &report, const std::string &what,
                const dosa::SearchResult &result, size_t planned);

/** Format a double with all its digits (round-trip %.17g). */
std::string num(double v);

/** Format a double with `digits` decimals, for report lines. */
std::string fixed(double v, int digits = 2);

} // namespace e2e

#endif // E2EBENCH_COMMON_HH
