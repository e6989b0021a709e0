/**
 * @file
 * Entry point of the e2ebench binary.
 *
 *   e2ebench --workload W --seed N --seconds S --trace 0|1
 *            [--trace-out FILE]
 *   e2ebench --list-metrics
 *
 * Workloads: codesign, rtl-surrogate, service (see ../README.md).
 * The last stdout line of a measured run is the JSON verdict
 * {"correct", "attempted", "failed", "metrics"}; the exit code is 0
 * only when every output check held.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hh"

using namespace e2e;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr, "e2ebench: %s\nusage: e2ebench --workload "
            "codesign|rtl-surrogate|service --seed N --seconds S "
            "--trace 0|1 [--trace-out FILE]\n", msg);
    return 2;
}

void
listMetrics()
{
    auto dump = [](const char *key, const std::vector<MetricDef> &defs) {
        std::printf("\"%s\": [", key);
        for (size_t i = 0; i < defs.size(); ++i)
            std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", defs[i].name,
                    defs[i].unit);
        std::printf("]");
    };
    std::printf("{");
    dump("end_to_end", endToEndMetrics());
    std::printf(", ");
    dump("per_layer", perLayerMetrics());
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        } else if (a == "--workload" || a == "--seed" ||
                   a == "--seconds" || a == "--trace" ||
                   a == "--trace-out") {
            const char *v = value();
            if (v == nullptr)
                return usage(("missing value for " + a).c_str());
            std::string s = v;
            char *end = nullptr;
            bool ok = !s.empty();
            if (a == "--workload") {
                args.workload = s;
            } else if (a == "--trace-out") {
                args.trace_out = s;
            } else if (a == "--trace") {
                ok = s == "0" || s == "1";
                args.trace = s == "1";
            } else if (a == "--seed") {
                args.seed = std::strtoull(v, &end, 10);
                ok = ok && *end == '\0';
            } else {
                args.seconds = std::strtod(v, &end);
                ok = ok && *end == '\0';
            }
            if (!ok)
                return usage(("bad value for " + a).c_str());
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    if (args.workload == "codesign")
        return runCodesign(args);
    if (args.workload == "rtl-surrogate")
        return runRtlSurrogate(args);
    if (args.workload == "service")
        return runService(args);
    return usage(("unknown workload \"" + args.workload + "\"").c_str());
}
