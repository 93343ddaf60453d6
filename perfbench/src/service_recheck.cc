/**
 * @file
 * service_recheck: the cheap re-check of an unchanged design that the
 * synthesis service exists for. Set-up starts a daemon with a fresh
 * state directory and sends one cold synthesize, which fills the
 * journal and the verdict cache; the load is 4 closed-loop clients
 * sending the seeded mix of warm synthesize, one-cycle campaign and
 * ping requests. Nothing is solved under load: the time goes to
 * elaboration, static analysis, cone hashing and store lookups,
 * framing, and the wait for one of the daemon's 2 workers.
 */

#include "serve/client.hh"
#include "service.hh"
#include "workload.hh"

namespace json = r2u::serve::json;

namespace pb
{

namespace
{

class ServiceRecheck : public Workload
{
  public:
    explicit ServiceRecheck(const RunConfig &cfg) : cfg_(cfg) {}

    void tearDown() override { daemon_.reset(); }

    void
    setUp() override
    {
        std::string dir = cfg_.workDir + "/svc";
        freshDir(dir);
        daemon_ = std::make_unique<Daemon>(dir);
        model_path_ = dir + "/model.uarch";

        r2u::serve::Client client;
        json::Value resp;
        std::string err;
        attempted++;
        if (!client.connect(daemon_->socket(), &err) ||
            !client.request(synthesizeRequest(kSynthJobs, model_path_),
                            resp, &err)) {
            fail("service set-up: " + err);
            return;
        }
        if (!resp.getBool("ok") ||
            resp.getStr("model_fnv") != kPinnedModelFnv ||
            resp.getInt("unknown_svas") != 0 ||
            resp.getInt("cache_appends") == 0)
            fail("service set-up: cold synthesize " + resp.dump());
    }

    Measurement
    measure(double seconds) override
    {
        Traffic t = driveTraffic(daemon_->socket(), model_path_,
                                 cfg_.seed, seconds);
        attempted += t.attempted;
        for (size_t i = 0; i < t.failed; i++)
            fail(i < t.failures.size() ? "service: " + t.failures[i]
                                       : "service: request failed");
        Measurement m;
        m.seconds = t.seconds;
        m.perSecond = static_cast<double>(t.completed) / m.seconds;
        m.named = {
            {"recheck_p50_ms", percentile(t.warmMs, 0.50), "ms"},
            {"recheck_p99_ms", percentile(t.warmMs, 0.99), "ms"},
            {"litmus_req_p50_ms", percentile(t.campaignMs, 0.50), "ms"},
            {"requests_per_s", m.perSecond, "1/s"},
        };
        m.opMs = std::move(t.warmMs);
        return m;
    }

  private:
    RunConfig cfg_;
    std::unique_ptr<Daemon> daemon_;
    std::string model_path_;
};

} // namespace

std::unique_ptr<Workload>
makeServiceRecheck(const RunConfig &cfg)
{
    return std::make_unique<ServiceRecheck>(cfg);
}

} // namespace pb
