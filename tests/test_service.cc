/**
 * @file
 * Tests of the search service stack: canonical SearchSpec JSON
 * round-trips (fixed and fuzzed), strict wire decoding of hostile
 * request/frame bytes, the fatal-by-contract spec loaders, and the
 * service core over the in-process bus — byte-identical streaming
 * equivalence with direct `runSearch` for all four searchers
 * (anchored to the tests/golden/ fixtures), concurrent-determinism,
 * fault injection (client disconnect, deadline expiry, queue-full
 * admission, shutdown) and a TCP end-to-end pass.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/search_api.hh"
#include "api/spec_json.hh"
#include "service/search_service.hh"
#include "service/service_bus.hh"
#include "service/tcp_server.hh"
#include "service/wire.hh"
#include "util/rng.hh"
#include "workload/layer.hh"
#include "workload/workload_registry.hh"

namespace dosa {
namespace {

using service::Frame;
using service::Request;
using service::SearchService;
using service::ServiceBus;
using service::ServiceConfig;

/** The canonical two-layer workload of the golden-trace fixtures. */
std::vector<Layer>
goldenLayers()
{
    return {
        Layer::gemm("a", 128, 64, 256),
        Layer::conv("b", 3, 16, 32, 64),
    };
}

// ---- The facade specs equivalent to the golden fixture configs
//      (mirrors test_api.cc; the service must reproduce them).

SearchSpec
goldenDosaSpec()
{
    SearchSpec spec;
    spec.algorithm = "dosa";
    spec.workload = goldenLayers();
    spec.seed = 5;
    spec.options.set("start_points", 3)
            .set("steps_per_start", 30)
            .set("round_every", 15);
    return spec;
}

SearchSpec
goldenRandomSpec()
{
    SearchSpec spec;
    spec.algorithm = "random";
    spec.workload = goldenLayers();
    spec.seed = 3;
    spec.options.set("hw_designs", 4).set("mappings_per_hw", 30);
    return spec;
}

SearchSpec
goldenMapperSpec()
{
    SearchSpec spec;
    spec.algorithm = "mapper";
    spec.workload = goldenLayers();
    spec.seed = 17;
    spec.options.set("samples", 40);
    return spec;
}

SearchSpec
goldenBayesOptSpec()
{
    SearchSpec spec;
    spec.algorithm = "bayesopt";
    spec.workload = goldenLayers();
    spec.seed = 21;
    spec.options.set("warmup_samples", 6)
            .set("total_samples", 14)
            .set("hw_candidates", 3)
            .set("map_candidates", 4);
    return spec;
}

std::vector<SearchSpec>
goldenSpecs()
{
    return {goldenDosaSpec(), goldenRandomSpec(), goldenMapperSpec(),
            goldenBayesOptSpec()};
}

/** Minimal reader of the tests/golden/ fixture format. */
struct Golden
{
    std::vector<double> trace;
    double best_edp = 0.0;
    long long pe_dim = 0, accum_kib = 0, spad_kib = 0;
};

void
readGolden(const std::string &name, Golden &g)
{
    const std::string path =
            std::string(DOSA_SOURCE_DIR) + "/tests/golden/" + name +
            ".trace";
    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << "missing fixture " << path;
    char line[256];
    size_t n = 0;
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr); // comment
    ASSERT_EQ(std::fscanf(f, "trace %zu\n", &n), 1);
    g.trace.resize(n);
    for (size_t i = 0; i < n; ++i) {
        ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
        g.trace[i] = std::strtod(line, nullptr);
    }
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    g.best_edp =
            std::strtod(line + std::strlen("best_edp "), nullptr);
    ASSERT_EQ(std::fscanf(f, "best_hw %lld %lld %lld", &g.pe_dim,
                      &g.accum_kib, &g.spad_kib),
            3);
    std::fclose(f);
}

/**
 * Observer producing exactly the frames the service's streaming
 * bridge would: the reference stream for equivalence tests.
 */
class FrameRecorder : public SearchObserver
{
  public:
    /** Cancels the run at the first sample that reaches `limit` frames. */
    explicit FrameRecorder(
            std::string id,
            size_t limit = std::numeric_limits<size_t>::max())
        : id_(std::move(id)), limit_(limit)
    {}

    void
    onPhase(const char *phase) override
    {
        frames.push_back(service::phaseFrame(id_, phase));
    }

    bool
    onSample(const SampleEvent &event) override
    {
        frames.push_back(service::sampleFrame(id_, event));
        return frames.size() < limit_;
    }

    void
    onImprovement(const SampleEvent &event) override
    {
        frames.push_back(service::improvementFrame(id_, event));
    }

    void
    onFrontier(const FrontierEvent &event) override
    {
        frames.push_back(service::frontierFrame(id_, event));
    }

    std::vector<std::string> frames;

  private:
    std::string id_;
    size_t limit_;
};

/** Direct-run reference stream for `spec`, terminal `done` included. */
std::vector<std::string>
expectedStream(const std::string &id, const SearchSpec &spec)
{
    FrameRecorder recorder(id);
    SearchReport report = runSearch(spec, &recorder);
    recorder.frames.push_back(service::doneFrame(id, report));
    return recorder.frames;
}

bool
isTerminal(const std::string &line)
{
    Frame f;
    std::string error;
    if (!service::decodeFrame(line, f, error))
        return true; // malformed replies end a stream in tests
    return f.kind == Frame::Kind::Done ||
           f.kind == Frame::Kind::Error ||
           f.kind == Frame::Kind::Pong ||
           f.kind == Frame::Kind::Stats;
}

/** Drain one client's reply stream through its terminal frame. */
std::vector<std::string>
collectStream(ServiceBus::Client &client)
{
    std::vector<std::string> frames;
    std::string frame;
    while (client.receive(frame)) {
        frames.push_back(frame);
        if (isTerminal(frame))
            break;
    }
    return frames;
}

/** Decoded terminal frame of a collected stream. */
Frame
terminalFrame(const std::vector<std::string> &frames)
{
    Frame f;
    std::string error;
    EXPECT_FALSE(frames.empty());
    if (!frames.empty()) {
        EXPECT_TRUE(service::decodeFrame(frames.back(), f, error))
                << frames.back() << ": " << error;
    }
    return f;
}

// ---------------------------------------------------------------
// SearchSpec JSON: canonical round-trips.
// ---------------------------------------------------------------

TEST(SpecJson, GoldenSpecsRoundTripBitwise)
{
    for (const SearchSpec &spec : goldenSpecs()) {
        const std::string once = specToJson(spec);
        SearchSpec decoded;
        std::string error;
        ASSERT_TRUE(specFromJson(once, decoded, error))
                << spec.algorithm << ": " << error;
        EXPECT_EQ(specToJson(decoded), once) << spec.algorithm;
        // And the decoded spec is semantically intact.
        EXPECT_EQ(decoded.algorithm, spec.algorithm);
        EXPECT_EQ(decoded.seed, spec.seed);
        EXPECT_EQ(decoded.workload.size(), spec.workload.size());
    }
}

/** A randomized but decodable spec (options from the registry). */
SearchSpec
randomSpec(Rng &rng)
{
    SearchSpec spec;
    const std::vector<std::string> algos = Search::algorithms();
    spec.algorithm = algos[size_t(rng.uniformInt(0,
            int64_t(algos.size()) - 1))];
    int layers = int(rng.uniformInt(1, 3));
    for (int i = 0; i < layers; ++i) {
        if (rng.bernoulli(0.5))
            spec.workload.push_back(Layer::gemm(
                    "g" + std::to_string(i),
                    rng.uniformInt(1, 512), rng.uniformInt(1, 512),
                    rng.uniformInt(1, 512)));
        else
            spec.workload.push_back(Layer::conv(
                    "c" + std::to_string(i), rng.uniformInt(1, 7),
                    rng.uniformInt(1, 64), rng.uniformInt(1, 128),
                    rng.uniformInt(1, 128), rng.uniformInt(1, 2)));
    }
    // Sometimes a by-name spec: the name must survive the trip even
    // when it is not (yet) registered on the decoding side.
    if (rng.bernoulli(0.2)) {
        spec.workload.clear();
        spec.workload_name =
                "net-" + std::to_string(rng.uniformInt(0, 99));
    }
    // Full-range 64-bit seeds must survive the trip.
    spec.seed = (uint64_t(rng.uniformInt(0, 0xffffffff)) << 32) |
            uint64_t(rng.uniformInt(0, 0xffffffff));
    spec.jobs = int(rng.uniformInt(0, 8));
    spec.cache = static_cast<CacheMode>(rng.uniformInt(0, 2));
    spec.budget.max_samples = int(rng.uniformInt(0, 1000000));
    spec.budget.deadline_s = rng.bernoulli(0.5)
            ? 0.0
            : rng.uniformReal(1e-17, 1e6);
    spec.mode.fix_pe = rng.bernoulli(0.5);
    spec.mode.pe_dim = rng.uniformInt(1, 64);
    spec.mode.penalty_weight = rng.uniformReal(1e-9, 1e3);
    spec.mode.max_area_mm2 = rng.bernoulli(0.5)
            ? 0.0
            : rng.uniformReal(0.1, 100.0);
    int weights = int(rng.uniformInt(0, 3));
    for (int i = 0; i < weights; ++i)
        spec.mode.layer_weights.push_back(
                rng.uniformReal(1e-6, 10.0));
    // Multi-objective mode fields, including combinations validation
    // would reject — the codec must round-trip them regardless.
    spec.mode.pareto.edp.enabled = rng.bernoulli(0.8);
    spec.mode.pareto.area.enabled = rng.bernoulli(0.5);
    spec.mode.pareto.power.enabled = rng.bernoulli(0.5);
    for (ParetoAxis *axis : {&spec.mode.pareto.edp,
                 &spec.mode.pareto.area, &spec.mode.pareto.power})
        if (rng.bernoulli(0.6)) {
            double exotic[] = {rng.uniformReal(1e-6, 10.0),
                    rng.uniformReal(-1e300, 1e300), 4.9e-324,
                    1.0 / 3.0};
            axis->weight = exotic[rng.uniformInt(0, 3)];
        }
    const Searcher *searcher = Search::find(spec.algorithm);
    for (std::string_view key : searcher->optionKeys())
        if (rng.bernoulli(0.6)) {
            // Exotic magnitudes: tiny, huge, negative, denormal.
            double exotic[] = {rng.uniformReal(0.0, 100.0),
                    rng.uniformReal(-1e300, 1e300), 4.9e-324,
                    1.0 / 3.0};
            spec.options.set(std::string(key),
                    exotic[rng.uniformInt(0, 3)]);
        }
    spec.fixed_hw.pe_dim = rng.uniformInt(1, 64);
    spec.fixed_hw.accum_kib = rng.uniformInt(1, 4096);
    spec.fixed_hw.spad_kib = rng.uniformInt(1, 4096);
    return spec;
}

TEST(SpecJson, FuzzedSpecsRoundTripBitwise)
{
    Rng rng(0xD05A5EED);
    for (int iter = 0; iter < 200; ++iter) {
        SearchSpec spec = randomSpec(rng);
        const std::string once = specToJson(spec);
        SearchSpec decoded;
        std::string error;
        ASSERT_TRUE(specFromJson(once, decoded, error))
                << once << ": " << error;
        ASSERT_EQ(specToJson(decoded), once) << "iteration " << iter;
        EXPECT_EQ(decoded.seed, spec.seed);
        EXPECT_EQ(decoded.budget.max_samples,
                spec.budget.max_samples);
    }
}

TEST(SpecJson, RejectsUnknownKeysTypeMismatchesAndBadEnums)
{
    SearchSpec decoded;
    std::string error;

    EXPECT_FALSE(specFromJson("{\"bogus\":1}", decoded, error));
    EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos);

    EXPECT_FALSE(specFromJson("{\"algorithm\":7}", decoded, error));
    EXPECT_NE(error.find("algorithm"), std::string::npos);

    EXPECT_FALSE(specFromJson("{\"cache\":\"sometimes\"}", decoded,
            error));
    EXPECT_NE(error.find("cache"), std::string::npos);

    EXPECT_FALSE(specFromJson(
            "{\"workload\":[{\"name\":\"x\",\"r\":\"no\"}]}", decoded,
            error));
    EXPECT_NE(error.find("workload[0]"), std::string::npos);

    EXPECT_FALSE(specFromJson("{\"budget\":{\"max_samples\":true}}",
            decoded, error));
    EXPECT_NE(error.find("budget"), std::string::npos);

    EXPECT_FALSE(specFromJson("not json at all", decoded, error));
    EXPECT_FALSE(error.empty());
}

TEST(SpecJson, MutatedCanonicalBytesNeverCrashTheDecoder)
{
    const std::string canon = specToJson(goldenDosaSpec());
    Rng rng(0xBADC0DE5);
    size_t accepted = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        std::string doc = canon;
        int edits = int(rng.uniformInt(1, 3));
        for (int e = 0; e < edits && !doc.empty(); ++e) {
            size_t pos = size_t(
                    rng.uniformInt(0, int64_t(doc.size()) - 1));
            if (rng.bernoulli(0.5))
                doc[pos] = char(rng.uniformInt(0, 255));
            else
                doc.erase(pos, 1);
        }
        SearchSpec decoded;
        std::string error;
        if (specFromJson(doc, decoded, error))
            ++accepted;
        else
            EXPECT_FALSE(error.empty());
    }
    EXPECT_LT(accepted, 1000u);

    // Every truncation of the canonical bytes is rejected cleanly.
    for (size_t len = 0; len < canon.size(); ++len) {
        SearchSpec decoded;
        std::string error;
        EXPECT_FALSE(specFromJson(canon.substr(0, len), decoded,
                error))
                << "prefix length " << len;
    }
}

TEST(SpecJsonDeathTest, MustSpecFromJsonIsFatalOnBadFixtures)
{
    EXPECT_EXIT((void)mustSpecFromJson("{\"algorithm\":"),
            ::testing::ExitedWithCode(1), "mustSpecFromJson");
    EXPECT_EXIT((void)mustSpecFromJson("{\"no_such_field\":1}"),
            ::testing::ExitedWithCode(1), "unknown key");
}

TEST(SpecJsonDeathTest, EncoderPanicsOnProcessLocalFields)
{
    SearchSpec spec = goldenMapperSpec();
    spec.scorer = LatencyScorer([](const Layer &, const Mapping &,
                                        const HardwareConfig &) {
        return 1.0;
    });
    EXPECT_DEATH((void)specToJson(spec), "process-local");
}

// ---------------------------------------------------------------
// Wire protocol: request and frame codecs.
// ---------------------------------------------------------------

TEST(Wire, RequestsRoundTrip)
{
    const SearchSpec spec = goldenRandomSpec();
    Request req;
    std::string error;

    ASSERT_TRUE(service::decodeRequest(
            service::encodeSearchRequest("r-1", spec), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Search);
    EXPECT_EQ(req.id, "r-1");
    EXPECT_EQ(specToJson(req.spec), specToJson(spec));

    ASSERT_TRUE(service::decodeRequest(
            service::encodeStatsRequest("r-2"), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Stats);
    EXPECT_EQ(req.id, "r-2");

    ASSERT_TRUE(service::decodeRequest(
            service::encodePingRequest("r-3"), req, error))
            << error;
    EXPECT_EQ(req.kind, Request::Kind::Ping);
    EXPECT_EQ(req.id, "r-3");
}

TEST(Wire, RequestDecodingIsStrictAndRecoversTheId)
{
    Request req;
    std::string error;

    EXPECT_FALSE(service::decodeRequest("garbage", req, error));
    EXPECT_TRUE(req.id.empty());

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"teleport\",\"id\":\"x\"}", req, error));
    EXPECT_EQ(req.id, "x"); // recovered for the error reply
    EXPECT_NE(error.find("unknown endpoint"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"ping\",\"id\":\"x\",\"extra\":1}", req,
            error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest(
            "{\"endpoint\":\"search\",\"id\":\"x\"}", req, error));
    EXPECT_NE(error.find("spec"), std::string::npos);

    EXPECT_FALSE(service::decodeRequest("{\"endpoint\":\"ping\"}",
            req, error));
    EXPECT_NE(error.find("id"), std::string::npos);
}

TEST(Wire, FramesRoundTrip)
{
    Frame f;
    std::string error;

    ASSERT_TRUE(service::decodeFrame(
            service::phaseFrame("a", "descent"), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Phase);
    EXPECT_EQ(f.id, "a");
    EXPECT_EQ(f.phase, "descent");

    SampleEvent ev{41, 2.5e-7, 1.25e-7, false};
    ASSERT_TRUE(service::decodeFrame(service::sampleFrame("a", ev),
            f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Sample);
    EXPECT_EQ(f.sample.index, 41u);
    EXPECT_EQ(f.sample.edp, 2.5e-7);
    EXPECT_EQ(f.sample.best_edp, 1.25e-7);
    EXPECT_FALSE(f.sample.improved);

    // +inf EDP (a rejected design) survives via the string form.
    SampleEvent inf_ev{0,
            std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity(), false};
    ASSERT_TRUE(service::decodeFrame(
            service::improvementFrame("a", inf_ev), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Improvement);
    EXPECT_TRUE(std::isinf(f.sample.edp));

    FrontierEvent front_ev{17, 2.5e-7, 3.75, 0.5, 4};
    ASSERT_TRUE(service::decodeFrame(
            service::frontierFrame("a", front_ev), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Frontier);
    EXPECT_EQ(f.frontier.index, 17u);
    EXPECT_EQ(f.frontier.edp, 2.5e-7);
    EXPECT_EQ(f.frontier.area_mm2, 3.75);
    EXPECT_EQ(f.frontier.power_w, 0.5);
    EXPECT_EQ(f.frontier.front_size, 4u);

    SearchReport report;
    report.search.best_edp = 3.25e-6;
    report.search.best_hw = HardwareConfig{32, 64, 256};
    report.search.best_mappings.push_back(Mapping{});
    report.search.trace = {5.0, 4.0, 3.25e-6};
    report.best_start_edp = 7.5;
    report.best_start_hw = HardwareConfig{16, 32, 128};
    // A multi-objective run's final front rides the done frame
    // (metrics and hardware; mappings stay in-process).
    ParetoObjectives axes;
    axes.area.enabled = true;
    axes.power.enabled = true;
    report.search.frontier.configure(axes);
    ParetoPoint point;
    point.edp = 3.25e-6;
    point.area_mm2 = 12.5;
    point.power_w = 0.75;
    point.sample_index = 2;
    point.hw = HardwareConfig{32, 64, 256};
    ASSERT_TRUE(report.search.frontier.consider(point));
    ASSERT_TRUE(service::decodeFrame(
            service::doneFrame("a", report), f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Done);
    EXPECT_EQ(f.best_edp, 3.25e-6);
    EXPECT_EQ(f.best_start_edp, 7.5);
    EXPECT_EQ(f.best_hw.pe_dim, 32);
    EXPECT_EQ(f.best_start_hw.spad_kib, 128);
    EXPECT_EQ(f.samples, 3u);
    ASSERT_EQ(f.best_mappings.size(), 1u);
    EXPECT_EQ(f.best_mappings[0], Mapping{});
    ASSERT_EQ(f.pareto_front.size(), 1u);
    EXPECT_EQ(f.pareto_front[0].index, 2u);
    EXPECT_EQ(f.pareto_front[0].edp, 3.25e-6);
    EXPECT_EQ(f.pareto_front[0].area_mm2, 12.5);
    EXPECT_EQ(f.pareto_front[0].power_w, 0.75);
    EXPECT_EQ(f.pareto_front[0].hw, (HardwareConfig{32, 64, 256}));

    ASSERT_TRUE(service::decodeFrame(
            service::errorFrame("a", service::errc::queue_full,
                    "full"),
            f, error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.code, "queue_full");
    EXPECT_EQ(f.message, "full");

    ASSERT_TRUE(service::decodeFrame(service::pongFrame("a"), f,
            error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Pong);

    service::EndpointStats ep;
    ep.name = "search";
    ep.requests = 3;
    ep.errors = 1;
    ep.last_error = "bad";
    ep.processing_s = Summary::of({0.25, 0.5, 1.0});
    ASSERT_TRUE(service::decodeFrame(
            service::statsFrame("a", "svc", "1.0.0", {ep}), f,
            error))
            << error;
    EXPECT_EQ(f.kind, Frame::Kind::Stats);
    EXPECT_EQ(f.service_name, "svc");
    ASSERT_EQ(f.endpoints.size(), 1u);
    EXPECT_EQ(f.endpoints[0].requests, 3u);
    EXPECT_EQ(f.endpoints[0].processing_s.n, 3u);
    EXPECT_EQ(f.endpoints[0].processing_s.p50, 0.5);
}

TEST(Wire, FrameDecodingIsStrict)
{
    Frame f;
    std::string error;
    EXPECT_FALSE(service::decodeFrame("{}", f, error));
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"pong\",\"id\":\"a\",\"x\":1}", f, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"sample\",\"id\":\"a\"}", f, error));
    EXPECT_FALSE(service::decodeFrame(
            "{\"event\":\"warp\",\"id\":\"a\"}", f, error));
    EXPECT_NE(error.find("unknown event"), std::string::npos);
}

// ---------------------------------------------------------------
// Service over the in-process bus.
// ---------------------------------------------------------------

TEST(Service, PingAndStatsAnswerInline)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    client.send(service::encodePingRequest("p1"));
    std::vector<std::string> pong = collectStream(client);
    ASSERT_EQ(pong.size(), 1u);
    Frame f = terminalFrame(pong);
    EXPECT_EQ(f.kind, Frame::Kind::Pong);
    EXPECT_EQ(f.id, "p1");

    client.send(service::encodeStatsRequest("s1"));
    Frame stats = terminalFrame(collectStream(client));
    ASSERT_EQ(stats.kind, Frame::Kind::Stats);
    EXPECT_EQ(stats.service_name, "dosa-search");
    ASSERT_EQ(stats.endpoints.size(), 4u); // sorted by name
    EXPECT_EQ(stats.endpoints[0].name, "_protocol");
    EXPECT_EQ(stats.endpoints[1].name, "ping");
    EXPECT_EQ(stats.endpoints[2].name, "search");
    EXPECT_EQ(stats.endpoints[3].name, "stats");
    EXPECT_EQ(stats.endpoints[1].requests, 1u); // the ping above
}

TEST(Service, MalformedAndInvalidRequestsGetTypedErrors)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    // Every terminal frame goes out after its request is counted, so
    // the counts already hold when the frame arrives.
    auto expectCounts = [&](uint64_t protocol_errors,
                            uint64_t search_requests,
                            uint64_t search_errors) {
        std::vector<service::EndpointStats> stats = svc.stats();
        ASSERT_EQ(stats.size(), 4u);
        EXPECT_EQ(stats[0].requests, protocol_errors); // _protocol
        EXPECT_EQ(stats[0].errors, protocol_errors);
        EXPECT_EQ(stats[2].requests, search_requests); // search
        EXPECT_EQ(stats[2].errors, search_errors);
    };

    // Unparseable line -> bad_request on the _protocol endpoint.
    client.send("this is not json");
    Frame f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.code, service::errc::bad_request);
    expectCounts(1, 0, 0);

    // Unknown algorithm -> bad_spec, with the registry listed.
    SearchSpec bad = goldenMapperSpec();
    bad.algorithm = "simulated-annealing";
    client.send(service::encodeSearchRequest("b1", bad));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.id, "b1");
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("mapper"), std::string::npos);
    expectCounts(1, 1, 1);

    // Unknown option key for a known algorithm -> bad_spec.
    SearchSpec bad_opt = goldenMapperSpec();
    bad_opt.options.set("warp_factor", 9.0);
    client.send(service::encodeSearchRequest("b2", bad_opt));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.code, service::errc::bad_spec);
    expectCounts(1, 2, 2);

    // Non-inherit cache mode -> bad_spec (global-flag race).
    SearchSpec bad_cache = goldenMapperSpec();
    bad_cache.cache = CacheMode::Enabled;
    client.send(service::encodeSearchRequest("b3", bad_cache));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("inherit"), std::string::npos);
    expectCounts(1, 3, 3);

    // Out-of-domain BB-BO option (a zero refit period would divide by
    // zero in the worker) -> bad_spec, and the service keeps serving.
    SearchSpec bad_refit = goldenBayesOptSpec();
    bad_refit.options.set("refit_every", 0);
    client.send(service::encodeSearchRequest("b4", bad_refit));
    f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("refit_every"), std::string::npos);
    expectCounts(1, 4, 4);
    client.send(service::encodeSearchRequest("ok",
            goldenBayesOptSpec()));
    EXPECT_EQ(terminalFrame(collectStream(client)).kind,
            Frame::Kind::Done);
    expectCounts(1, 5, 4);
    EXPECT_FALSE(svc.stats()[2].last_error.empty());
}

TEST(Service, MapperNonPositiveFixedHwGetsBadSpec)
{
    // A fixed_hw.pe_dim of 0 in spec_json used to pass validation and
    // crash the worker in the sampler; it must come back as a typed
    // bad_spec, and the service must keep serving.
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    SearchSpec bad = goldenMapperSpec();
    bad.fixed_hw.pe_dim = 0;
    client.send(service::encodeSearchRequest("z1", bad));
    Frame f = terminalFrame(collectStream(client));
    EXPECT_EQ(f.kind, Frame::Kind::Error);
    EXPECT_EQ(f.id, "z1");
    EXPECT_EQ(f.code, service::errc::bad_spec);
    EXPECT_NE(f.message.find("fixed_hw.pe_dim"), std::string::npos)
            << f.message;

    client.send(service::encodeSearchRequest("ok", goldenMapperSpec()));
    EXPECT_EQ(terminalFrame(collectStream(client)).kind,
            Frame::Kind::Done);
}

TEST(Service, StreamsAreByteIdenticalToDirectRunsAndGoldens)
{
    const char *names[] = {"dosa", "random", "mapper", "bayesopt"};
    std::vector<SearchSpec> specs = goldenSpecs();

    SearchService svc;
    ServiceBus bus(svc);
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string id = std::string("gold-") + names[i];
        std::vector<std::string> expected =
                expectedStream(id, specs[i]);

        ServiceBus::Client client = bus.connect();
        client.send(service::encodeSearchRequest(id, specs[i]));
        std::vector<std::string> streamed = collectStream(client);

        ASSERT_EQ(streamed.size(), expected.size()) << names[i];
        size_t mismatches = 0;
        for (size_t j = 0; j < expected.size(); ++j)
            if (streamed[j] != expected[j])
                ++mismatches;
        EXPECT_EQ(mismatches, 0u)
                << names[i] << ": streamed frames drifted from the "
                << "direct runSearch stream";

        // The terminal frame also matches the checked-in fixture.
        Frame done = terminalFrame(streamed);
        ASSERT_EQ(done.kind, Frame::Kind::Done) << names[i];
        Golden g;
        readGolden(names[i], g);
        if (::testing::Test::HasFatalFailure())
            return;
        EXPECT_EQ(done.best_edp, g.best_edp) << names[i];
        EXPECT_EQ(done.samples, g.trace.size()) << names[i];
        EXPECT_EQ(done.best_hw.pe_dim, g.pe_dim) << names[i];
        EXPECT_EQ(done.best_hw.accum_kib, g.accum_kib) << names[i];
        EXPECT_EQ(done.best_hw.spad_kib, g.spad_kib) << names[i];
    }
}

TEST(Service, MultiObjectiveStreamsMatchDirectRunsForAllSearchers)
{
    // The acceptance bar of the Pareto mode: with area and power
    // enabled, the service stream — frontier frames interleaved in
    // trace order plus the final front on the done frame — is
    // frame-for-frame identical to a direct runSearch for all four
    // searchers.
    const char *names[] = {"dosa", "random", "mapper", "bayesopt"};
    std::vector<SearchSpec> specs = goldenSpecs();
    for (SearchSpec &spec : specs) {
        spec.mode.pareto.area.enabled = true;
        spec.mode.pareto.power.enabled = true;
    }

    SearchService svc;
    ServiceBus bus(svc);
    for (size_t i = 0; i < specs.size(); ++i) {
        const std::string id = std::string("pareto-") + names[i];
        std::vector<std::string> expected =
                expectedStream(id, specs[i]);

        ServiceBus::Client client = bus.connect();
        client.send(service::encodeSearchRequest(id, specs[i]));
        std::vector<std::string> streamed = collectStream(client);

        ASSERT_EQ(streamed.size(), expected.size()) << names[i];
        for (size_t j = 0; j < expected.size(); ++j)
            EXPECT_EQ(streamed[j], expected[j])
                    << names[i] << " frame " << j;

        // The stream really exercised the new frame kind, and the
        // done frame carries a non-empty decoded front.
        size_t frontier_frames = 0;
        for (const std::string &line : streamed) {
            Frame f;
            std::string error;
            ASSERT_TRUE(service::decodeFrame(line, f, error))
                    << error;
            if (f.kind == Frame::Kind::Frontier)
                ++frontier_frames;
        }
        EXPECT_GT(frontier_frames, 0u) << names[i];
        Frame done = terminalFrame(streamed);
        ASSERT_EQ(done.kind, Frame::Kind::Done) << names[i];
        EXPECT_FALSE(done.pareto_front.empty()) << names[i];
        EXPECT_GE(frontier_frames, done.pareto_front.size())
                << names[i];
    }
}

TEST(Service, ByNameSearchOfFileLoadedWorkloadStreamsIdentically)
{
    // The daemon path end to end: load a checked-in workload file,
    // register it, and search it by name over the bus. The stream
    // must be byte-identical to a direct run with the same layers
    // inlined — by-name resolution adds nothing to the wire.
    Network net;
    std::string error;
    ASSERT_TRUE(loadWorkloadFile(
            DOSA_SOURCE_DIR "/workloads/bert.json", net, error))
            << error;
    net.name = "service-file-bert";
    Workloads::registerWorkload(net);

    SearchSpec by_name;
    by_name.algorithm = "mapper";
    by_name.workload_name = "service-file-bert";
    by_name.seed = 17;
    by_name.options.set("samples", 40);

    SearchSpec inline_spec = by_name;
    inline_spec.workload_name.clear();
    inline_spec.workload = net.layers;

    const std::string id = "by-name";
    std::vector<std::string> expected =
            expectedStream(id, inline_spec);

    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();
    client.send(service::encodeSearchRequest(id, by_name));
    std::vector<std::string> streamed = collectStream(client);

    ASSERT_EQ(streamed.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j)
        EXPECT_EQ(streamed[j], expected[j]) << "frame " << j;

    Frame done = terminalFrame(streamed);
    ASSERT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_GT(done.samples, 0u);
}

TEST(Service, ConcurrentClientsReceiveByteIdenticalStreams)
{
    const SearchSpec spec = goldenMapperSpec();
    const std::string id = "conc";
    const std::vector<std::string> expected = expectedStream(id, spec);

    ServiceConfig cfg;
    cfg.max_concurrent = 2; // overlap + queueing with 3 clients
    SearchService svc(cfg);
    ServiceBus bus(svc);

    constexpr int kClients = 3;
    std::vector<std::vector<std::string>> streams(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            ServiceBus::Client client = bus.connect();
            client.send(service::encodeSearchRequest(id, spec));
            streams[size_t(i)] = collectStream(client);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_EQ(streams[size_t(i)].size(), expected.size())
                << "client " << i;
        EXPECT_EQ(streams[size_t(i)], expected) << "client " << i;
    }
}

TEST(Service, ConcurrentMixedSearchesEqualDirectRuns)
{
    // The repository benchmark's service mix: `mapper` on the golden
    // two-layer workload and `random` on bert, 200 samples each, with
    // two searches running at once from four clients. Both searchers
    // share the random-mapping sampler (the Rng engine and the divisor
    // memo), so per-run state leaking between them would change a
    // result here.
    const Network *bert = Workloads::find("bert");
    ASSERT_NE(bert, nullptr);
    constexpr int kClients = 4;
    constexpr int kPerClient = 4;
    constexpr int kSpecs = kClients * kPerClient; // 16 seeds
    std::vector<SearchSpec> specs;
    std::vector<std::string> done_lines;
    for (int r = 0; r < kSpecs; ++r) {
        SearchSpec spec;
        // Client r % kClients sends its requests alternately as
        // mapper and random; neighbouring clients start on different
        // ones.
        bool mapper = (r + r / kClients) % 2 == 0;
        spec.algorithm = mapper ? "mapper" : "random";
        spec.workload = mapper ? goldenLayers() : bert->layers;
        spec.seed = 1000 + uint64_t(r);
        spec.budget.max_samples = 200;
        if (mapper)
            spec.options.set("samples", 200);
        SearchReport direct = runSearch(spec);
        ASSERT_EQ(direct.search.trace.size(), 200u);
        done_lines.push_back(service::doneFrame(std::to_string(r),
                direct));
        specs.push_back(std::move(spec));
    }

    ServiceConfig cfg;
    cfg.max_concurrent = 2;
    cfg.max_queue = 64;
    SearchService svc(cfg);
    ServiceBus bus(svc);
    std::vector<Frame> done(static_cast<size_t>(kSpecs));
    std::vector<std::string> lines(static_cast<size_t>(kSpecs));
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t)
        threads.emplace_back([&, t] {
            ServiceBus::Client client = bus.connect();
            for (int j = 0; j < kPerClient; ++j) {
                size_t r = size_t(t + kClients * j);
                client.send(service::encodeSearchRequest(
                        std::to_string(r), specs[r]));
                std::vector<std::string> stream = collectStream(client);
                if (!stream.empty())
                    lines[r] = stream.back();
                done[r] = terminalFrame(stream);
            }
        });
    for (std::thread &t : threads)
        t.join();

    for (size_t r = 0; r < size_t(kSpecs); ++r) {
        const std::string what = specs[r].algorithm + " seed " +
                std::to_string(specs[r].seed);
        Frame want;
        std::string error;
        ASSERT_TRUE(service::decodeFrame(done_lines[r], want, error))
                << error;
        ASSERT_EQ(done[r].kind, Frame::Kind::Done) << what;
        EXPECT_EQ(done[r].best_edp, want.best_edp) << what;
        EXPECT_EQ(done[r].samples, want.samples) << what;
        EXPECT_EQ(lines[r], done_lines[r]) << what;
    }
}

// ---------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------

TEST(ServiceFaults, ClientDisconnectCancelsWithinOneSample)
{
    SearchService svc;
    ServiceBus bus(svc);

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 60);

    constexpr size_t kCapacity = 4;
    ServiceBus::Client client = bus.connect(kCapacity);
    client.send(service::encodeSearchRequest("gone", spec));

    // Read a few frames (so the search is demonstrably streaming),
    // then vanish. The bounded queue backpressures the worker; close
    // releases its blocked send with `false`, the cancel signal.
    size_t reads = 0;
    std::string frame;
    while (reads < 3 && client.receive(frame))
        ++reads;
    ASSERT_EQ(reads, 3u);
    client.close();

    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    const service::RequestRecord &rec = history[0];
    EXPECT_EQ(rec.id, "gone");
    EXPECT_EQ(rec.outcome,
            service::RequestRecord::Outcome::Cancelled);
    // Cooperative cancel bound: the trace stops within one sample of
    // the failed send — reads + queue capacity + the phase and
    // improvement frames that shared the queue.
    EXPECT_GE(rec.samples, 1u);
    EXPECT_LE(rec.samples, uint64_t(3 + kCapacity + 2));
    EXPECT_LT(rec.samples, 60u);

    // A disconnect is not a service error.
    EXPECT_EQ(svc.stats()[2].errors, 0u);
}

TEST(ServiceFaults, DeadlineExpiryReturnsBestSoFar)
{
    SearchService svc;
    ServiceBus bus(svc);
    ServiceBus::Client client = bus.connect();

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000); // far beyond the deadline
    spec.budget.deadline_s = 0.2;

    client.send(service::encodeSearchRequest("dl", spec));

    // Keep draining so the worker never backpressures; the deadline,
    // not the queue, must be what stops it.
    std::vector<std::string> frames = collectStream(client);
    Frame done = terminalFrame(frames);
    ASSERT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_TRUE(std::isfinite(done.best_edp));
    EXPECT_GE(done.samples, 1u);
    EXPECT_LT(done.samples, 200000u);
    EXPECT_EQ(done.best_hw.pe_dim == 0, false);

    // The worker accounts the request after streaming `done`; wait
    // for it to go idle before inspecting the history.
    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].outcome,
            service::RequestRecord::Outcome::Done);
}

TEST(ServiceFaults, QueueFullRejectsWithTypedErrorAndCounts)
{
    ServiceConfig cfg;
    cfg.max_concurrent = 1;
    cfg.max_queue = 1;
    SearchService svc(cfg);
    ServiceBus bus(svc);

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 60);

    // Occupy the single worker: a client that reads one frame and
    // then stops (its bounded queue blocks the stream mid-search).
    ServiceBus::Client busy = bus.connect(2);
    busy.send(service::encodeSearchRequest("busy", spec));
    std::string frame;
    ASSERT_TRUE(busy.receive(frame)); // worker is demonstrably running

    // Fill the one queue slot...
    ServiceBus::Client queued = bus.connect();
    queued.send(service::encodeSearchRequest("queued", spec));

    // ...and overflow it.
    ServiceBus::Client rejected = bus.connect();
    rejected.send(service::encodeSearchRequest("nope", spec));
    Frame err = terminalFrame(collectStream(rejected));
    ASSERT_EQ(err.kind, Frame::Kind::Error);
    EXPECT_EQ(err.id, "nope");
    EXPECT_EQ(err.code, service::errc::queue_full);

    std::vector<service::EndpointStats> stats = svc.stats();
    EXPECT_EQ(stats[2].errors, 1u); // the rejection was counted
    EXPECT_NE(stats[2].last_error.find("queue"), std::string::npos);

    // Release the worker; the queued search must still complete.
    busy.close();
    Frame done = terminalFrame(collectStream(queued));
    EXPECT_EQ(done.kind, Frame::Kind::Done);
    EXPECT_EQ(done.id, "queued");
    svc.drain();
}

TEST(ServiceFaults, ShutdownCancelsInFlightSearches)
{
    auto svc = std::make_unique<SearchService>();
    ServiceBus bus(*svc);
    ServiceBus::Client client = bus.connect();

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000);
    client.send(service::encodeSearchRequest("shut", spec));

    // Drain continuously on a reader thread so shutdown's join can
    // never deadlock against a full reply queue. `frames` belongs to
    // the reader until the join; the main thread only watches the
    // atomic counter.
    std::vector<std::string> frames;
    std::atomic<size_t> received{0};
    std::thread reader([&] {
        std::string f;
        while (client.receive(f)) {
            frames.push_back(f);
            received.fetch_add(1, std::memory_order_release);
            if (isTerminal(f))
                break; // the shutdown error frame ends the stream
        }
    });

    while (received.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
    svc->shutdown();
    // Join before closing: closing drops undelivered frames, and the
    // shutdown error frame must reach the reader.
    reader.join();
    client.close();

    ASSERT_FALSE(frames.empty());
    Frame last;
    std::string error;
    ASSERT_TRUE(service::decodeFrame(frames.back(), last, error))
            << error;
    ASSERT_EQ(last.kind, Frame::Kind::Error);
    EXPECT_EQ(last.code, service::errc::shutdown);

    // New submissions after shutdown are turned away, not queued.
    ServiceBus::Client late = bus.connect();
    late.send(service::encodeSearchRequest("late", goldenMapperSpec()));
    Frame err = terminalFrame(collectStream(late));
    ASSERT_EQ(err.kind, Frame::Kind::Error);
    EXPECT_EQ(err.code, service::errc::shutdown);
}

TEST(Service, ConcurrentMixedTrafficKeepsCountsConsistent)
{
    ServiceConfig cfg;
    cfg.max_concurrent = 2;
    cfg.max_queue = 64;
    SearchService svc(cfg);
    ServiceBus bus(svc);

    SearchSpec small = goldenMapperSpec();
    small.options.set("samples", 5);

    constexpr int kThreads = 4;
    constexpr int kIters = 3;
    std::atomic<int> search_done{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                ServiceBus::Client client = bus.connect();
                std::string id = std::to_string(t) + "." +
                        std::to_string(i);
                client.send(service::encodePingRequest(id));
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Pong);
                client.send(service::encodeStatsRequest(id));
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Stats);
                client.send("junk line " + id);
                EXPECT_EQ(terminalFrame(collectStream(client)).kind,
                        Frame::Kind::Error);
                client.send(service::encodeSearchRequest(id, small));
                Frame done = terminalFrame(collectStream(client));
                EXPECT_EQ(done.kind, Frame::Kind::Done);
                if (done.kind == Frame::Kind::Done)
                    ++search_done;
            }
        });
    for (std::thread &t : threads)
        t.join();
    svc.drain();

    constexpr uint64_t kEach = uint64_t(kThreads) * kIters;
    EXPECT_EQ(search_done.load(), int(kEach));
    std::vector<service::EndpointStats> stats = svc.stats();
    EXPECT_EQ(stats[0].requests, kEach); // _protocol (junk lines)
    EXPECT_EQ(stats[0].errors, kEach);
    EXPECT_EQ(stats[1].requests, kEach); // ping
    EXPECT_EQ(stats[2].requests, kEach); // search
    EXPECT_EQ(stats[2].errors, 0u);
    EXPECT_EQ(stats[3].requests, kEach); // stats
    EXPECT_EQ(stats[2].processing_s.n, size_t(kEach));
    EXPECT_EQ(svc.history().size(), size_t(4 * kEach));
}

// ---------------------------------------------------------------
// TCP transport end-to-end.
// ---------------------------------------------------------------

TEST(ServiceTcp, EndToEndStreamingMatchesDirectRun)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.port(), 0);

    service::TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
            << error;

    // Liveness first.
    ASSERT_TRUE(client.sendLine(service::encodePingRequest("t0")));
    std::string line;
    ASSERT_TRUE(client.receiveLine(line));
    Frame f;
    ASSERT_TRUE(service::decodeFrame(line, f, error)) << error;
    EXPECT_EQ(f.kind, Frame::Kind::Pong);

    // Full search stream over the socket, byte-compared.
    const SearchSpec spec = goldenMapperSpec();
    const std::string id = "tcp-1";
    std::vector<std::string> expected = expectedStream(id, spec);
    ASSERT_TRUE(client.sendLine(
            service::encodeSearchRequest(id, spec)));
    std::vector<std::string> streamed;
    while (client.receiveLine(line)) {
        streamed.push_back(line);
        if (isTerminal(line))
            break;
    }
    EXPECT_EQ(streamed, expected);

    // Endpoint stats over the wire reflect the traffic. The worker
    // accounts the search after streaming `done`, so wait for it to
    // go idle before asking, or the counter read races.
    svc.drain();
    ASSERT_TRUE(client.sendLine(service::encodeStatsRequest("t2")));
    ASSERT_TRUE(client.receiveLine(line));
    ASSERT_TRUE(service::decodeFrame(line, f, error)) << error;
    ASSERT_EQ(f.kind, Frame::Kind::Stats);
    ASSERT_EQ(f.endpoints.size(), 4u);
    EXPECT_EQ(f.endpoints[2].requests, 1u); // search
    EXPECT_EQ(f.endpoints[1].requests, 1u); // ping

    client.close();
    server.stop();
    svc.shutdown();
}

TEST(ServiceTcp, ClientDisconnectOverSocketCancelsTheSearch)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000);

    {
        service::TcpClient client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port(),
                error))
                << error;
        ASSERT_TRUE(client.sendLine(
                service::encodeSearchRequest("drop", spec)));
        std::string line;
        ASSERT_TRUE(client.receiveLine(line)); // streaming started
        client.close();                        // vanish mid-stream
    }

    // The dead socket fails the sink; the search cancels within one
    // sample of the failed write instead of running 200k samples.
    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].outcome,
            service::RequestRecord::Outcome::Cancelled);
    EXPECT_LT(history[0].samples, 200000u);

    server.stop();
    svc.shutdown();
}

/** Local port of socket `fd` (0 when it has none). */
uint16_t
localPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
                    0 ||
            addr.sin_family != AF_INET)
        return 0;
    return ntohs(addr.sin_port);
}

/**
 * This process's TCP socket bound to port `local` whose peer sits on
 * port `peer`, or -1: the server's end of a loopback connection.
 */
int
findConnectedSocket(uint16_t local, uint16_t peer)
{
    for (int fd = 0; fd < 4096; ++fd) {
        if (localPort(fd) != local)
            continue;
        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        if (::getpeername(fd, reinterpret_cast<sockaddr *>(&addr),
                    &len) == 0 &&
                ntohs(addr.sin_port) == peer)
            return fd;
    }
    return -1;
}

/** `TCP_NODELAY` as read back from socket `fd` (-1 on error). */
int
noDelay(int fd)
{
    int value = -1;
    socklen_t len = sizeof(value);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0)
        return -1;
    return value;
}

TEST(ServiceTcp, BothEndsDisableNagle)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    service::TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
            << error;
    // A reply proves the server accepted (and configured) its end.
    ASSERT_TRUE(client.sendLine(service::encodePingRequest("n")));
    std::string line;
    ASSERT_TRUE(client.receiveLine(line));

    EXPECT_EQ(noDelay(client.fd()), 1);
    int accepted =
            findConnectedSocket(server.port(), localPort(client.fd()));
    ASSERT_GE(accepted, 0);
    EXPECT_EQ(noDelay(accepted), 1);

    client.close();
    server.stop();
    svc.shutdown();
}

TEST(ServiceTcp, PongFollowsHeldSamplesInOrderAndDisconnectCancels)
{
    SearchService svc;
    service::TcpServer server(svc, 0);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    SearchSpec spec = goldenMapperSpec();
    spec.options.set("samples", 200000);
    const std::string id = "long";

    service::TcpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error))
            << error;
    ASSERT_TRUE(client.sendLine(service::encodeSearchRequest(id, spec)));
    // Ping once 100 frames are in, while samples are being held and
    // batched, and read on until 300 frames and the pong have come.
    // The pong shares the connection with the held samples: it goes
    // out behind them, long before the search's done.
    constexpr size_t kPingAt = 100, kRead = 300;
    std::vector<std::string> streamed;
    std::string line;
    bool pong = false;
    while ((!pong || streamed.size() < kRead) &&
            client.receiveLine(line)) {
        Frame f;
        ASSERT_TRUE(service::decodeFrame(line, f, error))
                << "frame " << streamed.size() << " torn: " << error;
        ASSERT_NE(f.kind, Frame::Kind::Done) << "done before pong";
        if (f.kind == Frame::Kind::Pong) {
            EXPECT_EQ(f.id, "p");
            EXPECT_GE(streamed.size(), kPingAt);
            pong = true;
            continue;
        }
        streamed.push_back(line);
        if (streamed.size() == kPingAt) {
            ASSERT_TRUE(
                    client.sendLine(service::encodePingRequest("p")));
        }
    }
    ASSERT_TRUE(pong);
    ASSERT_GE(streamed.size(), kRead);

    // Vanish mid-stream: the search cancels instead of running 200k.
    client.close();
    svc.drain();
    std::vector<service::RequestRecord> history = svc.history();
    ASSERT_EQ(history.size(), 2u);
    for (const service::RequestRecord &rec : history) {
        if (rec.id == id) {
            EXPECT_EQ(rec.outcome,
                    service::RequestRecord::Outcome::Cancelled);
            EXPECT_LT(rec.samples, 200000u);
        } else {
            EXPECT_EQ(rec.id, "p");
            EXPECT_EQ(rec.outcome,
                    service::RequestRecord::Outcome::Done);
        }
    }
    server.stop();
    svc.shutdown();

    // Around the pong, the search's frames are a prefix of the direct
    // run: none torn, lost, duplicated or reordered.
    FrameRecorder recorder(id, streamed.size());
    (void)runSearch(spec, &recorder);
    ASSERT_GE(recorder.frames.size(), streamed.size());
    recorder.frames.resize(streamed.size());
    EXPECT_EQ(streamed, recorder.frames);
}

} // namespace
} // namespace dosa
