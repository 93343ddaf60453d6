/**
 * @file
 * Service-level chaos harness (--chaos SPEC).
 *
 * Extends the engine's per-query fault hook into fault *classes* the
 * daemon can arm from the command line, so every recovery path the
 * service claims — watchdog-interrupt of a hung solver, torn-append
 * rollback, client reconnect — is exercised by tests against the real
 * daemon, not just unit-level seams:
 *
 *   stall=N      hang the solver thread inside the engine fault hook
 *                for the next N queries (heartbeat stops advancing;
 *                the watchdog must fire Engine::interrupt())
 *   stall-ms=MS  how long each injected stall holds on (default
 *                10000; the watchdog is expected to cut it short)
 *   torn=N       fail the next N verdict-cache appends after writing
 *                half the frame (VerdictCache::setWriteFault)
 *   drop=N       close the next N client connections right before the
 *                response frame (client must reconnect + re-issue)
 *
 * Counters are consumable: each injection decrements its budget, so a
 * retried request runs clean and the end state must be bit-identical
 * to a fault-free run. All counters are thread-safe; a spec like
 * "stall=1,torn=2,drop=1" arms several classes at once.
 */

#ifndef R2U_SERVE_CHAOS_HH
#define R2U_SERVE_CHAOS_HH

#include <atomic>
#include <string>

namespace r2u::serve
{

struct ChaosSpec
{
    std::atomic<int> stall{0};
    int stallMs = 10000;
    std::atomic<int> torn{0};
    std::atomic<int> drop{0};

    ChaosSpec() = default;
    ChaosSpec(const ChaosSpec &) = delete;
    ChaosSpec &operator=(const ChaosSpec &) = delete;

    /**
     * Parse "key=value,key=value" (keys above). Returns false with a
     * message in @p err on an unknown key or malformed value; @p out
     * keeps whatever parsed before the error.
     */
    static bool parse(const std::string &spec, ChaosSpec &out,
                      std::string *err);

    /** Consume one injection from @p counter; false when exhausted. */
    static bool fire(std::atomic<int> &counter);

    bool armed() const
    {
        return stall.load() > 0 || torn.load() > 0 || drop.load() > 0;
    }

    /** "stall=1(ms=500),torn=0,drop=2" style remaining-budget line. */
    std::string summary() const;
};

} // namespace r2u::serve

#endif // R2U_SERVE_CHAOS_HH
