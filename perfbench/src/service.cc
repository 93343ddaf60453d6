#include "service.hh"

#include <exception>

#include "common/logging.hh"
#include "common/timer.hh"
#include "cycles.hh"
#include "serve/client.hh"
#include "trace.hh"
#include "workload.hh"

namespace json = r2u::serve::json;

namespace pb
{

Daemon::Daemon(const std::string &dir) : socket_(dir + "/s.sock")
{
    r2u::serve::ServerOptions opts;
    opts.socketPath = socket_;
    opts.stateDir = dir + "/state";
    server_ = std::make_unique<r2u::serve::Server>(std::move(opts));
    server_->start();
    thread_ = std::thread([this] {
        try {
            server_->serve();
        } catch (const std::exception &e) {
            r2u::warn("perfbench: daemon stopped: %s", e.what());
        }
    });
}

Daemon::~Daemon()
{
    server_->requestStop();
    thread_.join();
}

json::Value
synthesizeRequest(unsigned jobs, const std::string &out)
{
    const Design &d = vscaleDesign();
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("synthesize"));
    req.set("top", json::Value::string(d.elab.top));
    req.set("meta", json::Value::string(d.metaPath));
    json::Value files = json::Value::array();
    for (const std::string &f : d.files)
        files.push(json::Value::string(f));
    req.set("files", std::move(files));
    json::Value params = json::Value::object();
    for (const auto &[k, v] : d.elab.params)
        params.set(k, json::Value::number(int64_t{v}));
    req.set("params", std::move(params));
    req.set("jobs", json::Value::number(int64_t{jobs}));
    if (!out.empty())
        req.set("out", json::Value::string(out));
    return req;
}

namespace
{

/** Traffic of one client thread, merged after the join. */
struct ClientLog
{
    Traffic t;

    void
    failure(const std::string &why)
    {
        t.failed++;
        if (t.failures.size() < 3)
            t.failures.push_back(why);
    }
};

void
clientLoop(const std::string &socket, const std::string &model_path,
           uint64_t seed, r2u::Timer &clock, double seconds,
           ClientLog &log)
{
    Rng rng(seed);
    const json::Value synth = synthesizeRequest(1);
    json::Value ping = json::Value::object();
    ping.set("type", json::Value::string("ping"));

    r2u::serve::Client client;
    std::string err;
    while (clock.seconds() < seconds) {
        if (!client.connected() && !client.connect(socket, &err)) {
            log.t.attempted++;
            log.failure("connect: " + err);
            return; // the daemon is gone; nothing more can succeed
        }
        double pick = rng.unit();
        json::Value req;
        const char *span_name;
        if (pick < kWarmShare) {
            req = synth;
            span_name = "serve.synthesize";
        } else if (pick < kWarmShare + kCampaignShare) {
            req = json::Value::object();
            req.set("type", json::Value::string("campaign"));
            req.set("model", json::Value::string(model_path));
            req.set("cycle", json::Value::string(randomCycle(
                                 rng, 2 + static_cast<unsigned>(
                                              rng.below(2)))));
            span_name = "serve.campaign";
        } else {
            req = ping;
            span_name = "serve.ping";
        }

        json::Value resp;
        log.t.attempted++;
        r2u::Timer t;
        bool sent;
        {
            Span span(span_name);
            sent = client.request(req, resp, &err);
        }
        double ms = t.milliseconds();
        if (!sent) {
            log.failure("transport: " + err);
            continue;
        }
        if (!resp.getBool("ok")) {
            log.failure(resp.getStr("code") + ": " +
                        resp.getStr("error"));
            continue;
        }
        std::string type = resp.getStr("type");
        if (type == "synthesize") {
            if (resp.getStr("model_fnv") != kPinnedModelFnv ||
                resp.getInt("unknown_svas") != 0) {
                log.failure("synthesize: model " +
                            resp.getStr("model_fnv") + ", " +
                            std::to_string(resp.getInt("unknown_svas")) +
                            " unknown");
                continue;
            }
            double wall = resp.getDouble("wall_ms");
            log.t.warmMs.push_back(ms);
            log.t.execMs.push_back(wall);
            log.t.waitMs.push_back(ms - wall);
        } else if (type == "campaign") {
            if (resp.getInt("failures") != 0 ||
                resp.getBool("interrupted")) {
                log.failure("campaign on '" + req.getStr("cycle") +
                            "': " + resp.dump());
                continue;
            }
            log.t.campaignMs.push_back(ms);
        } else {
            log.t.pingMs.push_back(ms);
        }
        log.t.completed++;
    }
}

} // namespace

Traffic
driveTraffic(const std::string &socket, const std::string &model_path,
             uint64_t seed, double seconds, unsigned clients)
{
    std::vector<ClientLog> logs(clients);
    std::vector<std::thread> threads;
    r2u::Timer clock;
    for (unsigned c = 0; c < clients; c++)
        threads.emplace_back([&, c] {
            clientLoop(socket, model_path,
                       seed * 0x9E3779B97F4A7C15ull + c + 1, clock,
                       seconds, logs[c]);
        });
    for (std::thread &th : threads)
        th.join();

    Traffic all;
    all.seconds = clock.seconds();
    for (ClientLog &l : logs) {
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(all.warmMs, l.t.warmMs);
        append(all.campaignMs, l.t.campaignMs);
        append(all.pingMs, l.t.pingMs);
        append(all.execMs, l.t.execMs);
        append(all.waitMs, l.t.waitMs);
        all.attempted += l.t.attempted;
        all.completed += l.t.completed;
        all.failed += l.t.failed;
        for (const std::string &f : l.t.failures)
            all.failures.push_back(f);
    }
    return all;
}

} // namespace pb
