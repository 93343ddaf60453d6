#include "trace.hh"

#include <chrono>

#include "serve/json.hh"

namespace pb
{

namespace
{

std::atomic<uint32_t> g_next_tid{0};
thread_local uint32_t t_tid = g_next_tid.fetch_add(1);
thread_local int64_t t_current = -1;

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : epoch_ns_(steadyNs()) {}

int64_t
Tracer::nowUs() const
{
    return (steadyNs() - epoch_ns_) / 1000;
}

void
Tracer::record(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::string
Tracer::chromeJson() const
{
    namespace json = r2u::serve::json;
    json::Value events = json::Value::array();
    for (const SpanRecord &s : spans()) {
        json::Value ev = json::Value::object();
        ev.set("name", json::Value::string(s.name));
        ev.set("cat", json::Value::string(
                          s.name.substr(0, s.name.find('.'))));
        ev.set("ph", json::Value::string("X"));
        ev.set("pid", json::Value::number(int64_t{1}));
        ev.set("tid", json::Value::number(int64_t{s.tid}));
        ev.set("ts", json::Value::number(s.startUs));
        ev.set("dur", json::Value::number(s.endUs - s.startUs));
        json::Value args = json::Value::object();
        args.set("id", json::Value::number(s.id));
        args.set("parent", json::Value::number(s.parent));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", json::Value::string("ms"));
    return doc.dump();
}

Span::Span(const char *name)
{
    Tracer &tr = Tracer::global();
    if (!tr.enabled())
        return;
    active_ = true;
    rec_.name = name;
    rec_.tid = t_tid;
    rec_.id = tr.next_id_.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = t_current;
    t_current = rec_.id;
    rec_.startUs = tr.nowUs();
}

Span::~Span()
{
    if (!active_)
        return;
    Tracer &tr = Tracer::global();
    rec_.endUs = tr.nowUs();
    t_current = rec_.parent;
    tr.record(std::move(rec_));
}

} // namespace pb
