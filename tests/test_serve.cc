/**
 * @file
 * Tests for the resilient synthesis service: the length-prefixed
 * frame protocol, the chaos spec, and — against a real in-process
 * Server — admission control ("overloaded" replies), the full chaos
 * suite (solver stall -> watchdog interrupt -> bounded retry; torn
 * cache append -> rollback + disable; dropped connection -> client
 * reconnect/re-issue), warm restart from the persistent state dir,
 * and the front-end memo (edits miss, failed elaborations are not
 * stored, concurrent warm requests share one elaboration). The
 * acceptance property throughout: a daemon
 * under chaos returns a model bit-identical to a fault-free run.
 *
 * kill -9 crash recovery needs a real process boundary and lives in
 * tests/serve_smoke.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/campaign.hh"
#include "common/strutil.hh"
#include "litmus/litmus.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "common/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "verilog/elaborate.hh"

using namespace r2u;
using namespace r2u::serve;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Chaos spec
// ---------------------------------------------------------------------

TEST(Chaos, ParseAndFire)
{
    ChaosSpec spec;
    std::string err;
    ASSERT_TRUE(ChaosSpec::parse("stall=2, stall-ms=500, torn=1, drop=3",
                                 spec, &err))
        << err;
    EXPECT_EQ(spec.stall.load(), 2);
    EXPECT_EQ(spec.stallMs, 500);
    EXPECT_EQ(spec.torn.load(), 1);
    EXPECT_EQ(spec.drop.load(), 3);
    EXPECT_TRUE(spec.armed());

    // Budgets are consumable.
    EXPECT_TRUE(ChaosSpec::fire(spec.torn));
    EXPECT_FALSE(ChaosSpec::fire(spec.torn));

    ChaosSpec bad;
    EXPECT_FALSE(ChaosSpec::parse("explode=1", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall=-1", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall=x", bad, &err));
}

// ---------------------------------------------------------------------
// Frame protocol (over a socketpair)
// ---------------------------------------------------------------------

TEST(Protocol, FrameRoundTrip)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string payload = "{\"type\":\"ping\"}";
    ASSERT_TRUE(writeFrame(sv[0], payload));
    ASSERT_TRUE(writeFrame(sv[0], "")); // empty frames are legal
    std::string got;
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    EXPECT_EQ(got, "");

    // Clean EOF before the first byte vs. a frame cut mid-payload.
    ASSERT_TRUE(writeFrame(sv[0], "second"));
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    ::close(sv[0]);
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Eof);
    ::close(sv[1]);
}

TEST(Protocol, OversizedFrameIsRejected)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A length prefix past the cap must be refused without allocating.
    uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(sv[0], prefix, 4, 0), 4);
    std::string got;
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::TooBig);
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------
// In-process server
// ---------------------------------------------------------------------

namespace
{

#ifdef R2U_SOURCE_DIR
const char *kSourceDir = R2U_SOURCE_DIR;
#else
const char *kSourceDir = ".";
#endif

std::string
tempPath(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

/** Small multi-V-scale configuration (same as the CI quickstart). */
json::Value
synthesizeRequest()
{
    std::string d = std::string(kSourceDir) + "/designs/";
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("synthesize"));
    req.set("top", json::Value::string("multi_vscale"));
    req.set("meta", json::Value::string(d + "vscale.meta"));
    json::Value files = json::Value::array();
    for (const char *f : {"multi_vscale.v", "vscale_core.v",
                          "vscale_mem.v", "vscale_arbiter.v"})
        files.push(json::Value::string(d + f));
    req.set("files", std::move(files));
    json::Value params = json::Value::object();
    params.set("XLEN", json::Value::number(int64_t{8}));
    params.set("PC_BITS", json::Value::number(int64_t{6}));
    params.set("NREGS", json::Value::number(int64_t{8}));
    params.set("REG_BITS", json::Value::number(int64_t{3}));
    params.set("IMEM_WORDS", json::Value::number(int64_t{16}));
    params.set("IMEM_ABITS", json::Value::number(int64_t{4}));
    req.set("params", std::move(params));
    req.set("jobs", json::Value::number(int64_t{1}));
    req.set("inline_model", json::Value::boolean_(true));
    return req;
}

/** The model @p req asks for, synthesized directly (as the CLI does). */
std::string
directModel(const json::Value &req)
{
    rtl2uspec::DesignMetadata md =
        rtl2uspec::loadMetadata(req.getStr("meta"));
    if (req.getInt("bound") > 0)
        md.bound = static_cast<unsigned>(req.getInt("bound"));
    vlog::ElabOptions eo;
    eo.top = req.getStr("top");
    for (const auto &[k, v] : req.find("params")->obj)
        eo.params[k] = v.asInt();
    std::vector<std::string> paths;
    for (const auto &f : req.find("files")->arr)
        paths.push_back(f.asStr());
    rtl2uspec::SynthesisOptions so;
    so.jobs = 1;
    return rtl2uspec::synthesize(vlog::elaborateFiles(paths, eo), md, so)
        .model.print();
}

/** Fault-free reference model, synthesized once, directly. */
const std::string &
referenceModel()
{
    static std::string text = directModel(synthesizeRequest());
    return text;
}

/**
 * synthesizeRequest() at a short bound (fast to solve), over copies of
 * the design's files in a fresh temp directory @p dir, so a test can
 * edit them.
 */
json::Value
copiedDesignRequest(const std::string &dir)
{
    fs::create_directories(dir);
    json::Value req = synthesizeRequest();
    json::Value files = json::Value::array();
    for (const json::Value &f : req.find("files")->arr) {
        fs::path to = fs::path(dir) / fs::path(f.asStr()).filename();
        fs::copy_file(f.asStr(), to);
        files.push(json::Value::string(to.string()));
    }
    req.set("files", std::move(files));
    req.set("bound", json::Value::number(int64_t{5}));
    return req;
}

/** The status reply's frontend block. */
json::Value
frontendStatus(Client &client)
{
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("status"));
    json::Value resp;
    std::string err;
    EXPECT_TRUE(client.request(req, resp, &err)) << err;
    const json::Value *fe = resp.find("frontend");
    EXPECT_NE(fe, nullptr) << resp.dump();
    return fe ? *fe : json::Value::object();
}

/** Server + serve() thread with RAII shutdown. */
struct TestDaemon
{
    Server server;
    std::thread thread;

    explicit TestDaemon(ServerOptions opts) : server(std::move(opts))
    {
        server.start();
        thread = std::thread([this] { server.serve(); });
    }

    ~TestDaemon() { stop(); }

    void
    stop()
    {
        if (thread.joinable()) {
            server.requestStop();
            thread.join();
        }
    }
};

} // namespace

TEST(Serve, PingStatusAndBadRequests)
{
    std::string sock = tempPath("serve_basic.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;

    json::Value req = json::Value::object();
    req.set("type", json::Value::string("ping"));
    json::Value resp;
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("pong"));

    req.set("type", json::Value::string("status"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_FALSE(resp.getBool("draining"));
    EXPECT_GE(resp.getInt("requests"), 1);

    req.set("type", json::Value::string("no_such_thing"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "bad_request");

    // A frame carrying broken JSON gets an error response on a raw
    // connection, not a dead daemon. Drive the protocol layer by hand.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(writeFrame(fd, "{\"type\":"));
    std::string payload;
    ASSERT_EQ(readFrame(fd, payload), FrameIo::Ok);
    json::Value parsed;
    ASSERT_TRUE(json::Value::parse(payload, parsed, &err)) << err;
    EXPECT_FALSE(parsed.getBool("ok"));
    EXPECT_EQ(parsed.getStr("code"), "bad_request");
    ::close(fd);
}

// Metadata that names a signal the design lacks is the client's
// error: the daemon answers bad_request, naming the signal, and keeps
// serving.
TEST(Serve, UnknownMetadataSignalIsABadRequest)
{
    std::string sock = tempPath("serve_bad_signal.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;
    json::Value req = synthesizeRequest();
    req.set("meta", json::Value::string(std::string(kSourceDir) +
                                        "/tests/inputs/bad_signal.meta"));
    json::Value resp;
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "bad_request");
    EXPECT_NE(resp.getStr("error").find("'core_0.no_such_signal'"),
              std::string::npos)
        << resp.getStr("error");

    req = json::Value::object();
    req.set("type", json::Value::string("ping"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("pong"));
}

TEST(Serve, OverloadShedsWithExplicitReply)
{
    std::string sock = tempPath("serve_overload.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    opts.maxQueue = 0; // every heavy request is over the watermark
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model", json::Value::string("/nonexistent.uarch"));
    req.set("suite", json::Value::boolean_(true));
    json::Value resp;
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "overloaded");
    EXPECT_GT(resp.getInt("retry_after_ms"), 0);
    EXPECT_EQ(daemon.server.overloadedReplies(), 1u);
    // Light requests are never shed.
    req = json::Value::object();
    req.set("type", json::Value::string("ping"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
}

// The headline chaos test: stall + torn + drop all armed at once.
//  - stall freezes the solver heartbeat -> watchdog interrupts -> the
//    degraded attempt is retried server-side;
//  - torn tears the first verdict-cache append -> rollback, the store
//    stops writing (keeping new verdicts in memory), stays loadable,
//    and recovers on restart;
//  - drop closes the connection before the response -> the client
//    reconnects and re-issues warm.
// The surviving response's model must be bit-identical to the
// fault-free reference.
TEST(Serve, ChaosSuiteEndsBitIdentical)
{
    std::string sock = tempPath("serve_chaos.sock");
    std::string state = tempPath("serve_chaos_state");

    ChaosSpec chaos;
    std::string cerr_;
    ASSERT_TRUE(ChaosSpec::parse("stall=1,stall-ms=60000,torn=1,drop=1",
                                 chaos, &cerr_))
        << cerr_;

    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = state;
    opts.hangSeconds = 3.0; // watchdog must cut the 60 s stall short
    opts.requestRetries = 1;
    opts.chaos = &chaos;
    auto daemon = std::make_unique<TestDaemon>(std::move(opts));

    Client client;
    std::string err;
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(), resp,
                                        &err, /*attempts=*/4))
        << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();

    // Every fault class fired...
    EXPECT_EQ(chaos.stall.load(), 0);
    EXPECT_EQ(chaos.torn.load(), 0);
    EXPECT_EQ(chaos.drop.load(), 0);
    // ...and each recovery path ran.
    EXPECT_GE(daemon->server.watchdogInterrupts(), 1u);
    EXPECT_GE(daemon->server.requestRetriesDone(), 1u);
    ASSERT_NE(daemon->server.cache(), nullptr);
    EXPECT_TRUE(daemon->server.cache()->disabled());

    // The survived request's model is bit-identical to fault-free.
    EXPECT_EQ(resp.getStr("model"), referenceModel());
    EXPECT_FALSE(resp.getBool("interrupted"));

    std::string store = daemon->server.cache()->filePath();
    size_t appended = daemon->server.cache()->numAppended();
    daemon.reset(); // drains, and releases the store's write lock
    uintmax_t store_bytes = fs::file_size(store);

    // Restart on the same state dir (kill -9 instead of a drain is
    // serve_smoke.sh). The store loads everything appended before the
    // torn append, and nothing needs truncating: the torn frame was
    // already rolled back.
    ServerOptions opts2;
    opts2.socketPath = sock;
    opts2.stateDir = state;
    TestDaemon daemon2(std::move(opts2));
    ASSERT_NE(daemon2.server.cache(), nullptr);
    EXPECT_FALSE(daemon2.server.cache()->readOnly());
    EXPECT_FALSE(daemon2.server.cache()->disabled());
    EXPECT_EQ(daemon2.server.cache()->numLoaded(), appended);
    EXPECT_EQ(fs::file_size(store), store_bytes);

    // The re-issued request is bit-identical and stores the verdicts
    // the disabled store could not take.
    json::Value resp2;
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(),
                                        resp2, &err))
        << err;
    ASSERT_TRUE(resp2.getBool("ok")) << resp2.dump();
    EXPECT_EQ(resp2.getStr("model"), referenceModel());
    EXPECT_GT(resp2.getInt("cache_appends"), 0) << resp2.dump();

    // One more re-issue is fully warm: every SVA replays.
    json::Value resp3;
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(),
                                        resp3, &err))
        << err;
    ASSERT_TRUE(resp3.getBool("ok")) << resp3.dump();
    EXPECT_EQ(resp3.getStr("model"), referenceModel());
    EXPECT_EQ(resp3.getInt("cache_hits"), resp3.getInt("svas"))
        << resp3.dump();
    EXPECT_EQ(resp3.getInt("cache_misses"), 0) << resp3.dump();
}

// status's cache.loaded is what the daemon recovered at start-up, not
// what it has stored since: a cold synthesize on a fresh state dir
// appends verdicts but loads none.
TEST(Serve, StatusCountsLoadedVerdictsAtStartOnly)
{
    std::string sock = tempPath("serve_status.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = tempPath("serve_status_state");
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value resp;
    json::Value req = synthesizeRequest();
    req.set("jobs", json::Value::number(int64_t{2}));
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_GT(resp.getInt("cache_appends"), 0) << resp.dump();
    ASSERT_NE(resp.find("elab_cached"), nullptr) << resp.dump();
    EXPECT_FALSE(resp.getBool("elab_cached")) << resp.dump();

    // The same request again reuses the elaborated design.
    json::Value warm;
    ASSERT_TRUE(client.requestWithRetry(sock, req, warm, &err)) << err;
    ASSERT_TRUE(warm.getBool("ok")) << warm.dump();
    EXPECT_TRUE(warm.getBool("elab_cached")) << warm.dump();
    EXPECT_EQ(warm.getStr("model_fnv"), resp.getStr("model_fnv"));

    req = json::Value::object();
    req.set("type", json::Value::string("status"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    const json::Value *cache = resp.find("cache");
    ASSERT_NE(cache, nullptr) << resp.dump();
    EXPECT_TRUE(cache->getBool("enabled"));
    EXPECT_EQ(cache->getInt("loaded"), 0) << resp.dump();
    EXPECT_GT(cache->getInt("appended"), 0) << resp.dump();
    const json::Value *fe = resp.find("frontend");
    ASSERT_NE(fe, nullptr) << resp.dump();
    EXPECT_EQ(fe->getInt("entries"), 1) << resp.dump();
    EXPECT_EQ(fe->getInt("hits"), 1) << resp.dump();
    EXPECT_EQ(fe->getInt("misses"), 1) << resp.dump();
}

// Bad input is the client's error, not the daemon's: a malformed
// .meta and a Verilog syntax error each get bad_request, the failed
// elaboration is not memoized, and the daemon keeps serving. Once the
// file is fixed, the same request succeeds.
TEST(Serve, BadInputIsABadRequestAndIsNotMemoized)
{
    std::string sock = tempPath("serve_bad_input.sock");
    std::string dir = tempPath("serve_bad_input");
    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;
    json::Value good = copiedDesignRequest(dir);
    json::Value resp;

    std::string bad_meta = dir + "/bad.meta";
    writeFile(bad_meta, "core prefix=c.\n");
    json::Value req = good;
    req.set("meta", json::Value::string(bad_meta));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "bad_request") << resp.dump();

    std::string core = dir + "/vscale_core.v";
    std::string text = readFile(core);
    writeFile(core, text + "\nmodule broken(;\n");
    ASSERT_TRUE(client.request(good, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "bad_request") << resp.dump();
    EXPECT_EQ(frontendStatus(client).getInt("entries"), 0);

    writeFile(core, text);
    ASSERT_TRUE(client.request(good, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_FALSE(resp.getBool("elab_cached"));
    json::Value fe = frontendStatus(client);
    EXPECT_EQ(fe.getInt("entries"), 1);
    EXPECT_EQ(fe.getInt("hits"), 0);
}

// An edited file changes the memo key: the next request re-elaborates
// and answers with the model the edited design gives when synthesized
// directly. The edit is one operator at identical cell counts (the CI
// verdict-cache smoke's logic edit).
TEST(Serve, EditedSourceMissesTheFrontEndMemo)
{
    std::string sock = tempPath("serve_edit.sock");
    std::string dir = tempPath("serve_edit");
    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = tempPath("serve_edit_state");
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;
    json::Value req = copiedDesignRequest(dir);
    json::Value resp;
    for (int i = 0; i < 2; i++) {
        ASSERT_TRUE(client.request(req, resp, &err)) << err;
        ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
        EXPECT_EQ(resp.getBool("elab_cached"), i == 1);
    }

    std::string core = dir + "/vscale_core.v";
    std::string text = readFile(core);
    const std::string from = "alu_out = rs1_data & rs2_data;";
    size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "alu_out = rs1_data | rs2_data;");
    writeFile(core, text);

    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_FALSE(resp.getBool("elab_cached"));
    EXPECT_GT(resp.getInt("cache_misses"), 0) << resp.dump();
    EXPECT_EQ(resp.getStr("model"), directModel(req));
    json::Value fe = frontendStatus(client);
    EXPECT_EQ(fe.getInt("entries"), 2);
    EXPECT_EQ(fe.getInt("hits"), 1);
    EXPECT_EQ(fe.getInt("misses"), 2);
}

// Concurrent warm requests share one memoized design, read-only: every
// reply carries the same model, and the design was elaborated once.
TEST(Serve, ConcurrentWarmRequestsShareOneElaboration)
{
    std::string sock = tempPath("serve_concurrent.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = tempPath("serve_concurrent_state");
    TestDaemon daemon(std::move(opts));

    json::Value req = synthesizeRequest();
    req.set("bound", json::Value::number(int64_t{5}));
    Client warmer;
    std::string err;
    json::Value cold;
    ASSERT_TRUE(warmer.requestWithRetry(sock, req, cold, &err)) << err;
    ASSERT_TRUE(cold.getBool("ok")) << cold.dump();

    constexpr int kClients = 4;
    std::vector<json::Value> replies(kClients);
    std::vector<std::string> errs(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; i++)
        threads.emplace_back([&, i] {
            Client c;
            c.requestWithRetry(sock, req, replies[i], &errs[i]);
        });
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kClients; i++) {
        ASSERT_TRUE(replies[i].getBool("ok"))
            << errs[i] << replies[i].dump();
        EXPECT_TRUE(replies[i].getBool("elab_cached"));
        EXPECT_EQ(replies[i].getStr("model_fnv"),
                  cold.getStr("model_fnv"));
    }
    json::Value fe = frontendStatus(warmer);
    EXPECT_EQ(fe.getInt("entries"), 1);
    EXPECT_EQ(fe.getInt("misses"), 1);
    EXPECT_EQ(fe.getInt("hits"), kClients);
}

TEST(Serve, CampaignRoundTrip)
{
    std::string sock = tempPath("serve_campaign.sock");
    std::string model_path = tempPath("serve_campaign.uarch");
    writeFile(model_path, referenceModel());

    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model", json::Value::string(model_path));
    req.set("cycle", json::Value::string("Rfe PodRR Fre PodWW"));
    req.set("jobs", json::Value::number(int64_t{1}));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_EQ(resp.getInt("tests"), 1);
    EXPECT_EQ(resp.getInt("failures"), 0);
    EXPECT_FALSE(resp.getBool("interrupted"));
    ASSERT_NE(resp.find("results"), nullptr);
    ASSERT_EQ(resp.find("results")->arr.size(), 1u);
    EXPECT_TRUE(resp.find("results")->arr[0].getBool("ok"));
}

TEST(Serve, DrainRefusesNewWorkAndExitsCleanly)
{
    std::string sock = tempPath("serve_drain.sock");
    std::atomic<bool> stop{false};
    ServerOptions opts;
    opts.socketPath = sock;
    opts.externalStop = &stop;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("shutdown"));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("draining"));

    daemon.thread.join();
    // The socket is gone after the drain; the daemon exited its loop.
    EXPECT_FALSE(fs::exists(sock));

    Client late;
    EXPECT_FALSE(late.connect(sock, &err));
}

// The CLI SIGINT/SIGTERM path (uspec_check exit 3) rests on
// CampaignOptions::stop: with the flag already set, every candidate
// is skipped as pruned, the result is flagged interrupted, and the
// report records it — a sound partial answer, never a wrong one.
TEST(Campaign, StopFlagYieldsSoundInterruptedResult)
{
    uspec::Model model = uspec::Model::parse(
        readFile(std::string(kSourceDir) + "/designs/vscale_sc.uarch"));
    std::vector<litmus::Test> tests = litmus::standardSuite();
    std::atomic<bool> stop{true};
    check::CampaignOptions co;
    co.jobs = 1;
    co.stop = &stop;
    check::CampaignResult res = check::runCampaign(model, tests, co);
    EXPECT_TRUE(res.interrupted);
    EXPECT_EQ(res.executionsExplored, 0);
    EXPECT_EQ(res.executionsPruned, res.executionsTotal);
    json::Value report;
    std::string err;
    ASSERT_TRUE(json::Value::parse(res.jsonReport().dump(), report, &err))
        << err;
    ASSERT_NE(report.find("interrupted"), nullptr);
    EXPECT_TRUE(report.getBool("interrupted"));
}
