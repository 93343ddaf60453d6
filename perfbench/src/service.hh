/**
 * @file
 * The service side of the benchmark: an in-process daemon on a socket
 * inside the checkout, the request bodies, and the closed-loop client
 * traffic that service_recheck measures and the layer profile reuses.
 */

#ifndef PERFBENCH_SERVICE_HH
#define PERFBENCH_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hh"
#include "serve/server.hh"

namespace pb
{

/**
 * serve::Server with default options (2 workers) on <dir>/s.sock with
 * state in <dir>/state, served from its own thread until destroyed.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &dir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    std::unique_ptr<r2u::serve::Server> server_;
    std::thread thread_; ///< declared last: it uses server_
};

/** synthesize of the formal multi-V-scale; @p out writes the model. */
r2u::serve::json::Value synthesizeRequest(unsigned jobs,
                                          const std::string &out = "");

/**
 * Share of each request type in the traffic mix. Campaign requests
 * check one diy cycle over 2 or 3 threads: with 4-thread cycles in the
 * mix, the warm p99 swung by a quarter from run to run.
 */
constexpr double kWarmShare = 0.70;
constexpr double kCampaignShare = 0.25; // the rest (5%) are pings

struct Traffic
{
    /** Client-observed latencies (ms) per request type. */
    std::vector<double> warmMs, campaignMs, pingMs;
    /** Server-side wall_ms of warm synthesize replies, and latency
     *  minus wall_ms (framing plus admission wait). */
    std::vector<double> execMs, waitMs;
    uint64_t attempted = 0, completed = 0, failed = 0;
    std::vector<std::string> failures; ///< first few, for the log
    double seconds = 0.0;              ///< wall time of the whole loop
};

/**
 * @p clients closed-loop clients, one thread and one connection each,
 * send the seeded mix for @p seconds: warm synthesize of the unchanged
 * design, one-cycle campaigns against @p model_path, and pings. Every
 * reply is gated (pinned model hash, zero campaign failures); a
 * refused or "overloaded" request counts as failed.
 */
Traffic driveTraffic(const std::string &socket,
                     const std::string &model_path, uint64_t seed,
                     double seconds, unsigned clients = 4);

} // namespace pb

#endif // PERFBENCH_SERVICE_HH
