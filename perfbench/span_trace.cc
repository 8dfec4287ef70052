#include "span_trace.h"

#include <cstdio>

#include "src/runner/json_writer.h"

namespace perfbench
{

double
SpanTrace::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

void
SpanTrace::begin(const std::string &name, std::uint64_t cell)
{
    Span span;
    span.name = name;
    span.cell = cell;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start_s = now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
}

void
SpanTrace::end()
{
    spans_[open_.back()].end_s = now();
    open_.pop_back();
}

void
SpanTrace::add(const std::string &name, std::uint64_t cell,
               double start_s, double end_s)
{
    Span span;
    span.name = name;
    span.cell = cell;
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start_s = start_s;
    span.end_s = end_s;
    spans_.push_back(std::move(span));
}

bool
SpanTrace::writeChromeJson(const std::string &path,
                           const std::string &process_name) const
{
    bauvm::JsonWriter w(false);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", std::uint64_t{1});
    w.beginObject("args");
    w.field("name", process_name);
    w.endObject();
    w.endObject();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", std::uint64_t{1});
        w.field("tid", std::uint64_t{1});
        w.field("ts", s.start_s * 1e6);
        w.field("dur", (s.end_s - s.start_s) * 1e6);
        w.beginObject("args");
        w.field("cell", s.cell);
        w.field("span", static_cast<std::uint64_t>(i));
        if (s.parent != kNoParent)
            w.field("parent", static_cast<std::uint64_t>(s.parent));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = w.str();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
