/**
 * @file
 * The four in-tree searcher adapters ("dosa", "random", "mapper",
 * "bayesopt") and the legacy free-function compat shims.
 *
 * Each adapter translates a `SearchSpec` into the searcher's native
 * config — reading its option bag, deriving natural-length options
 * from `budget.max_samples` when absent — and calls the canonical
 * `detail::` implementation with the driver's `SearchControl`
 * installed. The shims go the other way: they pack a legacy config
 * into a spec and dispatch through `runSearch`, so the facade and
 * the free functions are the same code path (every numeric config
 * field round-trips exactly through the option bag; seed, scorer
 * and mode travel on dedicated spec fields), and the golden-trace
 * fixtures pin the equivalence bitwise.
 */
#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "api/search_api.hh"
#include "core/dosa_optimizer.hh"
#include "search/bayes_opt.hh"
#include "search/random_search.hh"

namespace dosa {

namespace {

/**
 * False with `error` set when one of `keys` is set outside
 * [1, INT_MAX]. Checked on the raw value, before the narrowing to int;
 * an absent key keeps its (valid) default.
 */
bool
checkCounts(const SearchSpec &spec, const char *algorithm,
            std::span<const std::string> keys, std::string &error)
{
    const int64_t max = std::numeric_limits<int>::max();
    for (const std::string &key : keys) {
        double v = spec.options.get(key, 1.0);
        if (v >= 1.0 && v <= static_cast<double>(max))
            continue;
        char got[32];
        std::snprintf(got, sizeof(got), "%.17g", v);
        error = "option \"" + key + "\" for search algorithm \"" +
                algorithm + "\" must be in [1, " + std::to_string(max) +
                "] (got " + got + ")";
        return false;
    }
    return true;
}

/** Adapter for the DOSA one-loop gradient-descent co-search. */
class DosaSearcher : public Searcher
{
  public:
    const char *name() const override { return "dosa"; }

    const char *
    description() const override
    {
        return "one-loop differentiable co-search (Adam descent with "
               "periodic rounding)";
    }

    std::vector<std::string_view>
    optionKeys() const override
    {
        return {"start_points", "steps_per_start", "round_every",
                "lr", "lr_decay", "line_search_probes", "strategy",
                "reject_factor", "max_start_tries",
                "project_feasible", "restart_from_best"};
    }

    /** A zero rounding period divides by zero in the descent loop. */
    bool
    checkOptionValues(const SearchSpec &spec,
                      std::string &error) const override
    {
        static const std::string kCounts[] = {"round_every"};
        return checkCounts(spec, name(), kCounts, error);
    }

    /** Spec -> native config (budget-derived steps when absent). */
    static DosaConfig
    configFromSpec(const SearchSpec &spec)
    {
        const OptionBag &opt = spec.options;
        DosaConfig cfg;
        cfg.mode = spec.mode;
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.score_latency = spec.scorer;
        cfg.start_points = static_cast<int>(
                opt.getInt("start_points", cfg.start_points));
        if (opt.has("steps_per_start"))
            cfg.steps_per_start = static_cast<int>(
                    opt.getInt("steps_per_start",
                            cfg.steps_per_start));
        else if (spec.budget.max_samples > 0)
            // One sample per step plus one per start point: spend
            // the unified budget across the starts.
            cfg.steps_per_start = std::max(1,
                    spec.budget.max_samples /
                            std::max(1, cfg.start_points) - 1);
        cfg.round_every = static_cast<int>(
                opt.getInt("round_every", cfg.round_every));
        cfg.lr = opt.get("lr", cfg.lr);
        cfg.lr_decay = opt.get("lr_decay", cfg.lr_decay);
        cfg.line_search_probes = static_cast<int>(
                opt.getInt("line_search_probes",
                        cfg.line_search_probes));
        cfg.strategy = static_cast<OrderStrategy>(opt.getInt(
                "strategy", static_cast<int64_t>(cfg.strategy)));
        cfg.reject_factor =
                opt.get("reject_factor", cfg.reject_factor);
        cfg.max_start_tries = static_cast<int>(
                opt.getInt("max_start_tries", cfg.max_start_tries));
        cfg.project_feasible =
                opt.getInt("project_feasible",
                        cfg.project_feasible ? 1 : 0) != 0;
        cfg.restart_from_best =
                opt.getInt("restart_from_best",
                        cfg.restart_from_best ? 1 : 0) != 0;
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        DosaConfig cfg = configFromSpec(spec);
        return static_cast<size_t>(cfg.start_points) *
               (static_cast<size_t>(cfg.steps_per_start) + 1);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl *control) const override
    {
        DosaConfig cfg = configFromSpec(spec);
        cfg.control = control;
        DosaResult r = detail::dosaSearchImpl(spec.workload, cfg);
        SearchReport report;
        report.search = std::move(r.search);
        report.best_start_edp = r.best_start_edp;
        report.best_start_hw = r.best_start_hw;
        return report;
    }
};

/** Adapter for the random hardware+mapping co-search baseline. */
class RandomSearcher : public Searcher
{
  public:
    const char *name() const override { return "random"; }

    const char *
    description() const override
    {
        return "random hardware + mapping co-search baseline";
    }

    std::vector<std::string_view>
    optionKeys() const override
    {
        return {"hw_designs", "mappings_per_hw"};
    }

    static RandomSearchConfig
    configFromSpec(const SearchSpec &spec)
    {
        const OptionBag &opt = spec.options;
        RandomSearchConfig cfg;
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        cfg.pareto = spec.mode.pareto;
        cfg.hw_designs = static_cast<int>(
                opt.getInt("hw_designs", cfg.hw_designs));
        if (opt.has("mappings_per_hw"))
            cfg.mappings_per_hw = static_cast<int>(
                    opt.getInt("mappings_per_hw",
                            cfg.mappings_per_hw));
        else if (spec.budget.max_samples > 0)
            cfg.mappings_per_hw = std::max(1,
                    spec.budget.max_samples /
                            std::max(1, cfg.hw_designs));
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        RandomSearchConfig cfg = configFromSpec(spec);
        return static_cast<size_t>(cfg.hw_designs) *
               static_cast<size_t>(cfg.mappings_per_hw);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl *control) const override
    {
        RandomSearchConfig cfg = configFromSpec(spec);
        cfg.control = control;
        SearchReport report;
        report.search = detail::randomSearchImpl(spec.workload, cfg);
        return report;
    }
};

/** Adapter for the fixed-hardware random mapper (Figs. 8 and 9). */
class MapperSearcher : public Searcher
{
  public:
    const char *name() const override { return "mapper"; }

    const char *
    description() const override
    {
        return "fixed-hardware random mapping search (Timeloop "
               "random-mapper stand-in) over spec.fixed_hw";
    }

    std::vector<std::string_view>
    optionKeys() const override
    {
        return {"samples"};
    }

    /**
     * The fixed hardware must be at least one PE and one KiB of each
     * buffer: a zero PE cap leaves no spatial factor to draw.
     */
    bool
    checkOptionValues(const SearchSpec &spec,
                      std::string &error) const override
    {
        const std::pair<const char *, int64_t> fields[] = {
            {"pe_dim", spec.fixed_hw.pe_dim},
            {"accum_kib", spec.fixed_hw.accum_kib},
            {"spad_kib", spec.fixed_hw.spad_kib},
        };
        for (const auto &[field, value] : fields) {
            if (value >= 1)
                continue;
            error = std::string("fixed_hw.") + field +
                    " for search algorithm \"" + name() +
                    "\" must be >= 1 (got " + std::to_string(value) +
                    ")";
            return false;
        }
        return true;
    }

    /** Sample count: explicit option, else the unified budget. */
    static int
    samplesFromSpec(const SearchSpec &spec)
    {
        if (spec.options.has("samples"))
            return static_cast<int>(
                    spec.options.getInt("samples", 1000));
        if (spec.budget.max_samples > 0)
            return spec.budget.max_samples;
        return 1000;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        return static_cast<size_t>(samplesFromSpec(spec));
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl *control) const override
    {
        SearchReport report;
        report.search = detail::randomMapperSearchImpl(spec.workload,
                spec.fixed_hw, samplesFromSpec(spec), spec.seed,
                spec.jobs, spec.scorer, control, spec.mode.pareto);
        return report;
    }
};

/** Adapter for the two-loop Bayesian-optimization baseline. */
class BayesOptSearcher : public Searcher
{
  public:
    const char *name() const override { return "bayesopt"; }

    const char *
    description() const override
    {
        return "two-loop black-box Bayesian optimization over GP "
               "posterior LCB";
    }

    std::vector<std::string_view>
    optionKeys() const override
    {
        return {"warmup_samples", "total_samples", "hw_candidates",
                "map_candidates", "refit_every", "max_train_points",
                "lcb_kappa"};
    }

    /**
     * Counts and periods must be >= 1: a zero refit period divides by
     * zero, zero candidates install an unscored design, and no warm-up
     * never fits the GP.
     */
    bool
    checkOptionValues(const SearchSpec &spec,
                      std::string &error) const override
    {
        static const std::string kCounts[] = {"warmup_samples",
                "hw_candidates", "map_candidates", "refit_every",
                "max_train_points"};
        return checkCounts(spec, name(), kCounts, error);
    }

    static BayesOptConfig
    configFromSpec(const SearchSpec &spec)
    {
        const OptionBag &opt = spec.options;
        BayesOptConfig cfg;
        cfg.seed = spec.seed;
        cfg.jobs = spec.jobs;
        cfg.scorer = spec.scorer;
        cfg.pareto = spec.mode.pareto;
        cfg.warmup_samples = static_cast<int>(
                opt.getInt("warmup_samples", cfg.warmup_samples));
        if (opt.has("total_samples"))
            cfg.total_samples = static_cast<int>(
                    opt.getInt("total_samples", cfg.total_samples));
        else if (spec.budget.max_samples > 0)
            cfg.total_samples = spec.budget.max_samples;
        cfg.hw_candidates = static_cast<int>(
                opt.getInt("hw_candidates", cfg.hw_candidates));
        cfg.map_candidates = static_cast<int>(
                opt.getInt("map_candidates", cfg.map_candidates));
        cfg.refit_every = static_cast<int>(
                opt.getInt("refit_every", cfg.refit_every));
        cfg.max_train_points = static_cast<int>(
                opt.getInt("max_train_points",
                        cfg.max_train_points));
        cfg.lcb_kappa = opt.get("lcb_kappa", cfg.lcb_kappa);
        return cfg;
    }

    size_t
    plannedSamples(const SearchSpec &spec) const override
    {
        return static_cast<size_t>(
                configFromSpec(spec).total_samples);
    }

    SearchReport
    run(const SearchSpec &spec, SearchControl *control) const override
    {
        BayesOptConfig cfg = configFromSpec(spec);
        cfg.control = control;
        SearchReport report;
        report.search =
                detail::bayesOptSearchImpl(spec.workload, cfg);
        return report;
    }
};

/** Shared spec scaffolding of the four compat shims. */
SearchSpec
baseSpec(const char *algorithm, const std::vector<Layer> &layers,
         uint64_t seed, int jobs, const LatencyScorer &scorer)
{
    SearchSpec spec;
    spec.algorithm = algorithm;
    spec.workload = layers;
    spec.seed = seed;
    spec.jobs = jobs;
    spec.scorer = scorer;
    return spec;
}

} // namespace

namespace detail {

void
registerBuiltinSearchers()
{
    static const DosaSearcher dosa_searcher;
    static const RandomSearcher random_searcher;
    static const MapperSearcher mapper_searcher;
    static const BayesOptSearcher bayesopt_searcher;
    // appendSearcher, not registerSearcher: this hook runs inside
    // the bootstrap, which registerSearcher would re-enter.
    appendSearcher(&dosa_searcher);
    appendSearcher(&random_searcher);
    appendSearcher(&mapper_searcher);
    appendSearcher(&bayesopt_searcher);
}

} // namespace detail

// ---------------------------------------------------------------------------
// Legacy compat shims: pack the native config into a SearchSpec and
// dispatch through the facade. A caller that installed its own
// SearchControl goes straight to the implementation (the facade
// would otherwise replace the control with its own).
// ---------------------------------------------------------------------------

DosaResult
dosaSearch(const std::vector<Layer> &layers, const DosaConfig &cfg)
{
    if (cfg.control != nullptr)
        return detail::dosaSearchImpl(layers, cfg);
    SearchSpec spec = baseSpec("dosa", layers, cfg.seed, cfg.jobs,
            cfg.score_latency);
    spec.mode = cfg.mode;
    spec.options.set("start_points", cfg.start_points)
            .set("steps_per_start", cfg.steps_per_start)
            .set("round_every", cfg.round_every)
            .set("lr", cfg.lr)
            .set("lr_decay", cfg.lr_decay)
            .set("line_search_probes", cfg.line_search_probes)
            .set("strategy", static_cast<double>(cfg.strategy))
            .set("reject_factor", cfg.reject_factor)
            .set("max_start_tries", cfg.max_start_tries)
            .set("project_feasible", cfg.project_feasible ? 1 : 0)
            .set("restart_from_best", cfg.restart_from_best ? 1 : 0);
    SearchReport report = runSearch(spec);
    DosaResult out;
    out.search = std::move(report.search);
    out.best_start_edp = report.best_start_edp;
    out.best_start_hw = report.best_start_hw;
    return out;
}

SearchResult
randomSearch(const std::vector<Layer> &layers,
             const RandomSearchConfig &cfg)
{
    if (cfg.control != nullptr)
        return detail::randomSearchImpl(layers, cfg);
    SearchSpec spec = baseSpec("random", layers, cfg.seed, cfg.jobs,
            cfg.scorer);
    spec.mode.pareto = cfg.pareto;
    spec.options.set("hw_designs", cfg.hw_designs)
            .set("mappings_per_hw", cfg.mappings_per_hw);
    SearchReport report = runSearch(spec);
    return std::move(report.search);
}

SearchResult
randomMapperSearch(const std::vector<Layer> &layers,
                   const HardwareConfig &hw, int samples, uint64_t seed,
                   int jobs, const LatencyScorer &scorer)
{
    SearchSpec spec = baseSpec("mapper", layers, seed, jobs, scorer);
    spec.fixed_hw = hw;
    spec.options.set("samples", samples);
    SearchReport report = runSearch(spec);
    return std::move(report.search);
}

SearchResult
bayesOptSearch(const std::vector<Layer> &layers,
               const BayesOptConfig &cfg)
{
    if (cfg.control != nullptr)
        return detail::bayesOptSearchImpl(layers, cfg);
    SearchSpec spec = baseSpec("bayesopt", layers, cfg.seed, cfg.jobs,
            cfg.scorer);
    spec.mode.pareto = cfg.pareto;
    spec.options.set("warmup_samples", cfg.warmup_samples)
            .set("total_samples", cfg.total_samples)
            .set("hw_candidates", cfg.hw_candidates)
            .set("map_candidates", cfg.map_candidates)
            .set("refit_every", cfg.refit_every)
            .set("max_train_points", cfg.max_train_points)
            .set("lcb_kappa", cfg.lcb_kappa);
    SearchReport report = runSearch(spec);
    return std::move(report.search);
}

} // namespace dosa
