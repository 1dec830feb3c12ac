#include "spans.hh"

#include <cstdio>

namespace e2e
{

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(&rec)
{
    if (!rec.enabled_)
        return;
    Span s;
    s.name = name;
    s.parent = rec.open_;
    s.op = rec.op_;
    index_ = static_cast<int>(rec.spans_.size());
    rec.spans_.push_back(s);
    rec.open_ = index_;
    rec.spans_[size_t(index_)].startNs = rec.nowNs();
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = rec_->spans_[size_t(index_)];
    s.endNs = rec_->nowNs();
    rec_->open_ = s.parent;
    if (s.parent >= 0)
        rec_->spans_[size_t(s.parent)].childNs += s.endNs - s.startNs;
}

std::vector<double>
SpanRecorder::durations(size_t from, std::string_view name) const
{
    std::vector<double> out;
    for (size_t i = from; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(spans_[i].durationS());
    return out;
}

double
SpanRecorder::total(size_t from, std::string_view name) const
{
    double sum = 0;
    for (double d : durations(from, name))
        sum += d;
    return sum;
}

std::string
SpanRecorder::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"op\":%llu,\"span\":%zu,\"parent\":%d,"
                      "\"self_us\":%.3f}}",
                      i ? "," : "", s.name, double(s.startNs) * 1e-3,
                      s.durationS() * 1e6,
                      static_cast<unsigned long long>(s.op), i, s.parent,
                      s.selfS() * 1e6);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace e2e
