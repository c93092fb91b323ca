#include "sim/metrics.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace elisa::sim
{

namespace
{

/** Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. */
std::string
sanitizeFamily(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/** Label values: escape backslash, double quote and newline. */
std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** CSV cell escaping (RFC-4180-ish, matching TextTable::renderCsv). */
std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

std::string
renderMetricLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += sanitizeFamily(k);
        out += "=\"";
        out += escapeLabelValue(v);
        out += '"';
    }
    out += '}';
    return out;
}

void
Metrics::attachStatSet(const StatSet &set, Labels labels,
                       std::string prefix)
{
    std::sort(labels.begin(), labels.end());
    for (Source &src : sources) {
        if (src.set == &set) {
            src.labels = std::move(labels);
            src.prefix = std::move(prefix);
            return;
        }
    }
    sources.push_back(Source{&set, std::move(labels),
                             std::move(prefix)});
}

void
Metrics::detachStatSet(const StatSet &set)
{
    std::erase_if(sources,
                  [&set](const Source &src) { return src.set == &set; });
}

std::vector<ExportSample>
Metrics::exportSamples() const
{
    std::vector<ExportSample> out;
    for (const Source &src : sources) {
        const std::string label_str = renderMetricLabels(src.labels);
        // StatSet::forEach walks names in order: deterministic.
        src.set->forEach([&](std::string_view name, std::uint64_t value) {
            out.push_back(ExportSample{
                sanitizeFamily(src.prefix + std::string(name)), label_str,
                src.labels, value});
        });
    }
    std::sort(out.begin(), out.end(),
              [](const ExportSample &a, const ExportSample &b) {
                  if (a.family != b.family)
                      return a.family < b.family;
                  return a.labelStr < b.labelStr;
              });
    return out;
}

std::string
renderPrometheus(const std::vector<ExportSample> &samples)
{
    std::ostringstream out;
    std::string open_family;
    for (const ExportSample &s : samples) {
        if (s.family != open_family) {
            open_family = s.family;
            out << "# TYPE " << s.family << " counter\n";
        }
        out << s.family << "_total" << s.labelStr << ' ' << s.counterVal
            << '\n';
    }
    return out.str();
}

std::string
Metrics::prometheus() const
{
    return renderPrometheus(exportSamples());
}

std::string
renderMetricsCsvHeader(const std::vector<ExportSample> &samples)
{
    std::string out = "sim_ns";
    for (const ExportSample &s : samples) {
        out += ',';
        out += csvCell(s.family + s.labelStr);
    }
    out += '\n';
    return out;
}

std::string
renderMetricsCsvRow(SimNs now, const std::vector<ExportSample> &samples)
{
    std::string out = detail::format("%llu", (unsigned long long)now);
    for (const ExportSample &s : samples) {
        out += ',';
        out += detail::format("%llu", (unsigned long long)s.counterVal);
    }
    out += '\n';
    return out;
}

MetricsCsvSampler::MetricsCsvSampler(const Metrics &metrics)
    : reg(metrics)
{
    const std::vector<ExportSample> samples = metrics.exportSamples();
    doc = renderMetricsCsvHeader(samples);
    samplesPerRow = samples.size();
}

void
MetricsCsvSampler::sample(SimNs now)
{
    const std::vector<ExportSample> samples = reg.exportSamples();
    panic_if(samples.size() != samplesPerRow,
             "counters appeared after sampling started (%zu columns "
             "in header, %zu in row)",
             samplesPerRow + 1, samples.size() + 1);
    doc += renderMetricsCsvRow(now, samples);
    ++rowCount;
}

} // namespace elisa::sim
