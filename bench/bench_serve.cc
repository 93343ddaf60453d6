/**
 * @file
 * Synthesis service latency benchmark (ISSUE 10): an in-process
 * rtl2uspec_serve daemon on a temp socket, measured from the client
 * side. Three figures: the cold first synthesize request (empty state
 * dir, every query solved), repeated warm requests (every verdict
 * replayed from the daemon's verdict cache — the steady-state cost
 * of re-checking an unchanged design through the service), and the
 * raw ping round-trip (protocol + dispatch floor). Writes
 * BENCH_serve.json.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "serve/client.hh"
#include "common/json.hh"
#include "serve/server.hh"

using namespace r2u;
using namespace r2u::serve;
namespace fs = std::filesystem;

namespace
{

/** The formal-sized multi-V-scale request (same files/params as the
 *  experiment benches use via vscale::Config::formal()). */
json::Value
synthesizeRequest()
{
    std::string d = std::string(R2U_DESIGN_DIR) + "/";
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
    return req;
}

} // namespace

int
main()
{
    bench::banner("Synthesis service — request latency through the "
                  "daemon (cold / warm / ping)");

    fs::path tmp = fs::temp_directory_path() / "r2u_bench_serve";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    std::string sock = (tmp / "d.sock").string();

    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = (tmp / "state").string();
    opts.workers = 2;
    Server server(std::move(opts));
    server.start();
    std::thread daemon([&] { server.serve(); });

    Client client;
    std::string err;
    json::Value req = synthesizeRequest();
    json::Value resp;

    // Cold: empty state dir, every query reaches a solver.
    double cold_ms;
    {
        Timer t;
        if (!client.requestWithRetry(sock, req, resp, &err) ||
            !resp.getBool("ok")) {
            std::fprintf(stderr, "cold request failed: %s\n",
                         err.empty() ? resp.dump().c_str()
                                     : err.c_str());
            server.requestStop();
            daemon.join();
            return 1;
        }
        cold_ms = t.milliseconds();
    }
    std::string model_fnv = resp.getStr("model_fnv");
    std::printf("cold synthesize: %.1f ms (%lld queries solved)\n",
                cold_ms,
                static_cast<long long>(resp.getInt("cache_misses")));

    // Warm: the verdict cache replays every verdict; this
    // is the steady-state cost of re-checking an unchanged design.
    int warm_iters = bench::quickMode() ? 3 : 10;
    std::vector<double> warm;
    long long warm_hits = 0;
    for (int i = 0; i < warm_iters; i++) {
        Timer t;
        if (!client.requestWithRetry(sock, req, resp, &err) ||
            !resp.getBool("ok") ||
            resp.getStr("model_fnv") != model_fnv) {
            std::fprintf(stderr, "warm request %d failed or diverged\n",
                         i);
            server.requestStop();
            daemon.join();
            return 1;
        }
        warm.push_back(t.milliseconds());
        warm_hits = resp.getInt("cache_hits");
    }
    double warm_p50 = bench::percentile(warm, 0.50);
    double warm_p90 = bench::percentile(warm, 0.90);
    std::printf("warm synthesize: p50 %.1f ms, p90 %.1f ms over %d "
                "requests (%lld cache hits each)\n",
                warm_p50, warm_p90, warm_iters, warm_hits);
    std::printf("warm/cold ratio: %.3f\n", warm_p50 / cold_ms);

    // Ping: the protocol + dispatch floor under every request above.
    int ping_iters = bench::quickMode() ? 50 : 500;
    std::vector<double> ping;
    json::Value ping_req = json::Value::object();
    ping_req.set("type", json::Value::string("ping"));
    for (int i = 0; i < ping_iters; i++) {
        Timer t;
        if (!client.requestWithRetry(sock, ping_req, resp, &err)) {
            std::fprintf(stderr, "ping failed: %s\n", err.c_str());
            server.requestStop();
            daemon.join();
            return 1;
        }
        ping.push_back(t.milliseconds());
    }
    double ping_p50 = bench::percentile(ping, 0.50);
    double ping_p99 = bench::percentile(ping, 0.99);
    std::printf("ping round-trip: p50 %.3f ms, p99 %.3f ms over %d "
                "requests\n",
                ping_p50, ping_p99, ping_iters);

    server.requestStop();
    daemon.join();
    fs::remove_all(tmp);

    auto num = [](double n) { return json::Value::number(n); };
    json::Value doc = json::Value::object();
    doc.set("cold_synthesize_ms", num(cold_ms))
        .set("warm_requests", num(warm_iters))
        .set("warm_synthesize_p50_ms", num(warm_p50))
        .set("warm_synthesize_p90_ms", num(warm_p90))
        .set("warm_cache_hits", num(warm_hits))
        .set("warm_over_cold", num(warm_p50 / cold_ms))
        .set("ping_requests", num(ping_iters))
        .set("ping_p50_ms", num(ping_p50))
        .set("ping_p99_ms", num(ping_p99))
        .set("model_fnv", json::Value::string(model_fnv));
    writeFile(bench::outPath("BENCH_serve.json"), doc.dump() + "\n");
    std::printf("JSON summary written to %s\n",
                bench::outPath("BENCH_serve.json").c_str());
    return 0;
}
