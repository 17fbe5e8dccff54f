#include "obs/report_diff.hpp"

#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace opiso::obs {

namespace {

std::vector<std::string> split_path(const std::string& dotted) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (start <= dotted.size()) {
    const std::size_t dot = dotted.find('.', start);
    if (dot == std::string::npos) {
      segments.push_back(dotted.substr(start));
      break;
    }
    segments.push_back(dotted.substr(start, dot - start));
    start = dot + 1;
  }
  return segments;
}

/// Glob match within one segment: `*` matches any run of characters.
bool segment_matches(const std::string& pattern, const std::string& segment) {
  if (pattern == "*") return true;
  // Iterative glob (patterns here are short: at most a few stars).
  std::size_t p = 0, s = 0, star = std::string::npos, mark = 0;
  while (s < segment.size()) {
    if (p < pattern.size() && (pattern[p] == segment[s])) {
      ++p, ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

/// `**` matches zero or more whole segments anywhere in the pattern
/// (not just at the tail): `totals.**.toggles` covers both
/// `totals.toggles` and `totals.a.b.toggles`. Patterns and paths are
/// short, so plain backtracking recursion is fine. Empty segments (from
/// consecutive dots) participate like any other literal segment.
bool path_matches_at(const std::vector<std::string>& pattern, std::size_t p,
                     const std::vector<std::string>& path, std::size_t s) {
  if (p == pattern.size()) return s == path.size();
  if (pattern[p] == "**") {
    for (std::size_t skip = s; skip <= path.size(); ++skip) {
      if (path_matches_at(pattern, p + 1, path, skip)) return true;
    }
    return false;
  }
  if (s == path.size()) return false;
  if (!segment_matches(pattern[p], path[s])) return false;
  return path_matches_at(pattern, p + 1, path, s + 1);
}

bool path_matches(const std::vector<std::string>& pattern,
                  const std::vector<std::string>& path) {
  return path_matches_at(pattern, 0, path, 0);
}

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& seg : path) {
    if (!out.empty()) out += '.';
    out += seg;
  }
  return out.empty() ? "(root)" : out;
}

std::string render(const JsonValue& v) {
  std::string s = v.dump();
  if (s.size() > 64) s = s.substr(0, 61) + "...";
  return s;
}

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "bool";
    case JsonValue::Kind::Number: return "number";
    case JsonValue::Kind::String: return "string";
    case JsonValue::Kind::Array: return "array";
    case JsonValue::Kind::Object: return "object";
  }
  return "?";
}

class Differ {
 public:
  Differ(const ToleranceSpec& spec, const DiffOptions& options)
      : spec_(spec), options_(options) {}

  std::vector<DiffEntry> run(const JsonValue& a, const JsonValue& b) {
    entries_.clear();
    path_.clear();
    compare(a, b);
    return std::move(entries_);
  }

 private:
  bool full() const {
    return options_.max_entries != 0 && entries_.size() >= options_.max_entries;
  }

  void report(std::string kind, std::string av, std::string bv, double delta = 0.0,
              double allowed = 0.0) {
    if (full()) return;
    entries_.push_back(DiffEntry{join_path(path_), std::move(kind), std::move(av),
                                 std::move(bv), delta, allowed, ""});
    // A diff on a rule-less path gets a hint at the glob that almost
    // covered it (schema mismatches excluded: no rule is expected
    // there, the documents are simply different artifacts).
    if (current_rule_ == nullptr && entries_.back().kind != "schema") {
      entries_.back().nearest_rule = spec_.nearest_pattern(path_);
    }
  }

  void compare(const JsonValue& a, const JsonValue& b) {
    if (full()) return;
    const ToleranceRule* rule = spec_.match(path_);
    current_rule_ = rule;
    if (rule && rule->ignore) return;

    if (a.kind() != b.kind()) {
      // A double-rep and an int-rep number are still both numbers, so a
      // kind mismatch is a genuine structural divergence.
      report("type", kind_name(a.kind()), kind_name(b.kind()));
      return;
    }
    switch (a.kind()) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (a.as_bool() != b.as_bool()) report("value", a.dump(), b.dump());
        return;
      case JsonValue::Kind::Number:
        compare_numbers(a, b, rule);
        return;
      case JsonValue::Kind::String:
        if (a.as_string() != b.as_string()) {
          // The "schema" key names the artifact type: surface a
          // mismatch as its own kind so callers can fail fast.
          const bool is_schema = !path_.empty() && path_.back() == "schema";
          report(is_schema ? "schema" : "value", render(a), render(b));
        }
        return;
      case JsonValue::Kind::Array:
        compare_arrays(a, b);
        return;
      case JsonValue::Kind::Object:
        compare_objects(a, b);
        return;
    }
  }

  static bool exact_int_equal(const JsonValue& a, const JsonValue& b) {
    const bool a_signed = a.num_rep() == JsonValue::NumRep::Int64;
    const bool b_signed = b.num_rep() == JsonValue::NumRep::Int64;
    if (a_signed && b_signed) return a.as_int64() == b.as_int64();
    if (!a_signed && !b_signed) return a.as_uint64() == b.as_uint64();
    // Mixed reps agree only in the [0, 2^63) overlap.
    const JsonValue& s = a_signed ? a : b;
    const JsonValue& u = a_signed ? b : a;
    const std::int64_t sv = s.as_int64();
    return sv >= 0 && static_cast<std::uint64_t>(sv) == u.as_uint64();
  }

  void compare_numbers(const JsonValue& a, const JsonValue& b, const ToleranceRule* rule) {
    if (a.is_integer() && b.is_integer()) {
      // Exact path: counters beyond 2^53 must not be compared through
      // doubles. A mismatch still falls through so a tolerance rule may
      // accept the drift (delta measured in double space).
      if (exact_int_equal(a, b)) return;
    } else if (a.as_number() == b.as_number()) {
      return;
    }
    const double av = a.as_number();
    const double bv = b.as_number();
    const double delta = std::abs(av - bv);
    const double abs_tol = rule ? rule->abs_tol : 0.0;
    const double rel_tol = rule ? rule->rel_tol : 0.0;
    const double rel_allow = rel_tol * std::max(std::abs(av), std::abs(bv));
    double allowed = std::max(abs_tol, rel_allow);
    if (delta > 0.0 && (delta <= abs_tol || delta <= rel_allow)) return;
    // One-sided trajectory rules (baseline A vs fresh B): improvement
    // is unbounded, only a regression beyond the margin is a diff.
    if (rule && (rule->rel_increase >= 0.0 || rule->rel_decrease >= 0.0)) {
      bool ok = true;
      if (rule->rel_increase >= 0.0) {
        const double margin = rule->rel_increase * std::abs(av);
        if (bv > av + margin) ok = false;
        allowed = std::max(allowed, margin);
      }
      if (rule->rel_decrease >= 0.0) {
        const double margin = rule->rel_decrease * std::abs(av);
        if (bv < av - margin) ok = false;
        allowed = std::max(allowed, margin);
      }
      if (ok) return;
    }
    report("value", a.dump(), b.dump(), delta, allowed);
  }

  void compare_arrays(const JsonValue& a, const JsonValue& b) {
    if (a.size() != b.size()) {
      report("length", std::to_string(a.size()), std::to_string(b.size()));
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      path_.push_back(std::to_string(i));
      compare(a.at(i), b.at(i));
      path_.pop_back();
    }
  }

  void compare_objects(const JsonValue& a, const JsonValue& b) {
    // "schema" first: a mismatch there makes the rest of the listing
    // noise, so it must lead.
    if (a.contains("schema") && b.contains("schema")) {
      path_.push_back("schema");
      compare(a.at("schema"), b.at("schema"));
      path_.pop_back();
    }
    for (const auto& [key, av] : a.members()) {
      if (key == "schema" && b.contains("schema")) continue;
      path_.push_back(key);
      if (!b.contains(key)) {
        const ToleranceRule* rule = spec_.match(path_);
        current_rule_ = rule;
        if (!rule || !rule->ignore) report("missing", render(av), "");
      } else {
        compare(av, b.at(key));
      }
      path_.pop_back();
    }
    if (options_.subset) return;
    for (const auto& [key, bv] : b.members()) {
      if (a.contains(key)) continue;
      path_.push_back(key);
      const ToleranceRule* rule = spec_.match(path_);
      current_rule_ = rule;
      if (!rule || !rule->ignore) report("extra", "", render(bv));
      path_.pop_back();
    }
  }

  const ToleranceSpec& spec_;
  const DiffOptions& options_;
  std::vector<std::string> path_;
  std::vector<DiffEntry> entries_;
  /// Rule matched for the field currently being compared (null = none);
  /// report() reads it to decide whether a near-miss hint is due.
  const ToleranceRule* current_rule_ = nullptr;
};

}  // namespace

ToleranceSpec ToleranceSpec::parse(const JsonValue& doc) {
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "opiso.report_tolerances/v1") {
    throw Error("tolerance file: expected schema opiso.report_tolerances/v1");
  }
  ToleranceSpec spec;
  if (!doc.contains("rules")) return spec;
  const JsonValue& rules = doc.at("rules");
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const JsonValue& r = rules.at(i);
    if (!r.is_object() || !r.contains("path")) {
      throw Error("tolerance file: rule " + std::to_string(i) + " needs a \"path\"");
    }
    ToleranceRule rule;
    rule.pattern = split_path(r.at("path").as_string());
    if (r.contains("ignore")) rule.ignore = r.at("ignore").as_bool();
    if (r.contains("abs")) rule.abs_tol = r.at("abs").as_number();
    if (r.contains("rel")) rule.rel_tol = r.at("rel").as_number();
    if (r.contains("rel_increase")) rule.rel_increase = r.at("rel_increase").as_number();
    if (r.contains("rel_decrease")) rule.rel_decrease = r.at("rel_decrease").as_number();
    spec.add_rule(std::move(rule));
  }
  return spec;
}

const ToleranceRule* ToleranceSpec::match(const std::vector<std::string>& path) const {
  for (const ToleranceRule& rule : rules_) {
    if (path_matches(rule.pattern, path)) return &rule;
  }
  return nullptr;
}

std::string ToleranceSpec::nearest_pattern(const std::vector<std::string>& path) const {
  // Glob-aware longest shared prefix: how many leading path segments
  // the pattern covers before the two diverge (`**` counts as covering
  // the segment it sits on). A rule must cover at least one segment to
  // qualify; ties break toward the pattern whose segment count is
  // closest to the path's, then toward the earlier rule (matching the
  // first-match-wins semantics of match()).
  const ToleranceRule* best = nullptr;
  std::size_t best_prefix = 0;
  std::size_t best_len_gap = 0;
  for (const ToleranceRule& rule : rules_) {
    std::size_t prefix = 0;
    while (prefix < rule.pattern.size() && prefix < path.size() &&
           (rule.pattern[prefix] == "**" ||
            segment_matches(rule.pattern[prefix], path[prefix]))) {
      ++prefix;
    }
    if (prefix == 0) continue;
    const std::size_t len_gap = rule.pattern.size() > path.size()
                                    ? rule.pattern.size() - path.size()
                                    : path.size() - rule.pattern.size();
    if (best == nullptr || prefix > best_prefix ||
        (prefix == best_prefix && len_gap < best_len_gap)) {
      best = &rule;
      best_prefix = prefix;
      best_len_gap = len_gap;
    }
  }
  if (best == nullptr) return "";
  std::string out;
  for (const std::string& seg : best->pattern) {
    if (!out.empty()) out += '.';
    out += seg;
  }
  return out;
}

std::vector<DiffEntry> diff_reports(const JsonValue& a, const JsonValue& b,
                                    const ToleranceSpec& spec, const DiffOptions& options) {
  return Differ(spec, options).run(a, b);
}

void print_diff(std::ostream& os, const std::vector<DiffEntry>& entries) {
  for (const DiffEntry& e : entries) {
    os << e.kind << "  " << e.path;
    if (e.kind == "value" || e.kind == "schema" || e.kind == "type") {
      os << ": " << e.a << " != " << e.b;
      if (e.delta > 0.0) {
        os << "  (delta " << e.delta << ", allowed " << e.allowed << ")";
      }
    } else if (e.kind == "missing") {
      os << ": only in A (" << e.a << ")";
    } else if (e.kind == "extra") {
      os << ": only in B (" << e.b << ")";
    } else if (e.kind == "length") {
      os << ": array length " << e.a << " != " << e.b;
    }
    if (!e.nearest_rule.empty()) {
      os << "  [no tolerance rule matched; nearest glob: " << e.nearest_rule << "]";
    }
    os << "\n";
  }
}

}  // namespace opiso::obs
