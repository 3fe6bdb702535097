#include "telemetry/text.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace lejit::telemetry {

int RowLayout::first_fine_field() const {
  for (int i = 0; i < num_fields(); ++i)
    if (fields[static_cast<std::size_t>(i)].is_fine) return i;
  return num_fields();
}

RowLayout telemetry_row_layout(const Limits& limits) {
  RowLayout layout;
  const std::vector<Int> ubs = coarse_upper_bounds(limits);
  const char* prefixes[kNumCoarse] = {"T=", " E=", " R=", " C=", " G="};
  for (int i = 0; i < kNumCoarse; ++i) {
    layout.fields.push_back(FieldSpec{
        .prefix = prefixes[i],
        .name = kCoarseNames[i],
        .max_value = ubs[static_cast<std::size_t>(i)],
        .is_fine = false,
    });
  }
  for (int t = 0; t < limits.window; ++t) {
    layout.fields.push_back(FieldSpec{
        .prefix = (t == 0 ? "|" : " "),
        .name = "I" + std::to_string(t),
        .max_value = limits.bandwidth,
        .is_fine = true,
    });
  }
  layout.suffix = "\n";
  return layout;
}

RowLayout coarse_row_layout(const Limits& limits) {
  RowLayout layout = telemetry_row_layout(limits);
  std::erase_if(layout.fields, [](const FieldSpec& f) { return f.is_fine; });
  return layout;
}

std::string row_alphabet() { return "0123456789TERCG=| \n"; }

std::string window_to_row(const Window& w) {
  std::ostringstream os;
  os << "T=" << w.total << " E=" << w.ecn << " R=" << w.rtx << " C=" << w.conn
     << " G=" << w.egress << "|";
  for (std::size_t t = 0; t < w.fine.size(); ++t) {
    if (t > 0) os << " ";
    os << w.fine[t];
  }
  os << "\n";
  return os.str();
}

std::string window_to_coarse_row(const Window& w) {
  std::ostringstream os;
  os << "T=" << w.total << " E=" << w.ecn << " R=" << w.rtx << " C=" << w.conn
     << " G=" << w.egress << "\n";
  return os.str();
}

std::string imputation_prompt(const Window& w) {
  std::ostringstream os;
  os << "T=" << w.total << " E=" << w.ecn << " R=" << w.rtx << " C=" << w.conn
     << " G=" << w.egress << "|";
  return os.str();
}

std::string dataset_corpus(const Dataset& dataset) {
  std::string out;
  for (const auto& rack : dataset.racks)
    for (const auto& w : rack.windows) out += window_to_row(w);
  return out;
}

namespace {

// Consume an expected literal; returns false on mismatch.
bool eat(std::string_view& s, std::string_view literal) {
  if (!s.starts_with(literal)) return false;
  s.remove_prefix(literal.size());
  return true;
}

// Consume a run of digits as a non-negative integer.
std::optional<Int> eat_int(std::string_view& s) {
  std::size_t n = 0;
  while (n < s.size() && s[n] >= '0' && s[n] <= '9') ++n;
  if (n == 0) return std::nullopt;
  const auto v = util::parse_int(s.substr(0, n));
  s.remove_prefix(n);
  return v;
}

}  // namespace

std::optional<Window> parse_row(std::string_view row, const RowLayout& layout) {
  if (row.ends_with('\n')) row.remove_suffix(1);

  Window w;
  std::vector<Int> values;
  std::string_view rest = row;
  for (const FieldSpec& field : layout.fields) {
    if (!eat(rest, field.prefix)) return std::nullopt;
    const auto v = eat_int(rest);
    if (!v || *v < 0) return std::nullopt;
    values.push_back(*v);
  }
  if (!rest.empty()) return std::nullopt;

  // Layouts with fewer fields than the schema (e.g. tiny test layouts) fill
  // only the coarse slots they have and carry no fine series.
  Int* const coarse[kNumCoarse] = {&w.total, &w.ecn, &w.rtx, &w.conn,
                                   &w.egress};
  const std::size_t n_coarse =
      std::min(values.size(), static_cast<std::size_t>(kNumCoarse));
  for (std::size_t i = 0; i < n_coarse; ++i) *coarse[i] = values[i];
  w.fine.assign(values.begin() + static_cast<std::ptrdiff_t>(n_coarse),
                values.end());
  return w;
}

std::optional<Window> parse_row(std::string_view row, const Limits& limits) {
  return parse_row(row, telemetry_row_layout(limits));
}

ParsedCorpus parse_corpus(std::string_view corpus, const Limits& limits) {
  ParsedCorpus out;
  for (const auto line : util::split(corpus, '\n')) {
    if (line.empty()) continue;
    if (auto w = parse_row(line, limits))
      out.windows.push_back(std::move(*w));
    else
      ++out.malformed;
  }
  return out;
}

}  // namespace lejit::telemetry
