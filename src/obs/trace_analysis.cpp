#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "net/topology.hpp"

namespace sws::obs {

namespace {

// --------------------------------------------------------------- mini JSON
//
// Recursive-descent parser for the subset our own writer emits: objects,
// arrays, strings with \" and \\ escapes, numbers, true/false/null. Keys
// and values we don't recognize are parsed and dropped, so the format can
// grow without breaking older analyzers.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* get(const std::string& key) const noexcept {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  double num_or(const std::string& key, double fb) const noexcept {
    const JsonValue* v = get(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fb;
  }
  std::string str_or(const std::string& key, std::string fb) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->type == Type::kString ? v->str : fb;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::istream& is) {
    std::ostringstream buf;
    buf << is.rdbuf();
    text_ = buf.str();
  }

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", [] {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      }());
      case 'f': return literal("false", [] {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        return v;
      }());
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  JsonValue literal(const char* word, JsonValue v) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_)
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
    return v;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.obj.emplace_back(std::move(key.str), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\') fail("unsupported escape");
      }
      v.str.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// Trace-format µs (possibly fractional) -> integer ns.
std::uint64_t to_ns(double ts_us) {
  return static_cast<std::uint64_t>(std::llround(ts_us * 1000.0));
}

}  // namespace

// ------------------------------------------------------------------ parse

RunTrace parse_chrome_trace(std::istream& is) {
  JsonParser parser(is);
  const JsonValue root = parser.parse();
  if (root.type != JsonValue::Type::kArray)
    throw std::runtime_error("trace JSON: top-level value is not an array");

  RunTrace rt;
  // Open spans, keyed by span id (globally unique per run by
  // construction: high bits name the PE).
  std::unordered_map<std::uint64_t, Span> open;
  const auto note_time = [&rt](std::uint64_t t) {
    rt.duration_ns = std::max(rt.duration_ns, t);
  };

  for (const JsonValue& ev : root.arr) {
    if (ev.type != JsonValue::Type::kObject)
      throw std::runtime_error("trace JSON: event is not an object");
    const std::string name = ev.str_or("name", "");
    const std::string ph = ev.str_or("ph", "");
    const std::uint64_t ts = to_ns(ev.num_or("ts", 0.0));
    const int pe = static_cast<int>(ev.num_or("tid", -1.0));
    const JsonValue* args = ev.get("args");

    if (name == "sws_run_meta" && args != nullptr) {
      rt.protocol = args->str_or("protocol", "");
      rt.npes = static_cast<int>(args->num_or("npes", 0.0));
      rt.slot_bytes =
          static_cast<std::uint32_t>(args->num_or("slot_bytes", 0.0));
      rt.topo = args->str_or("topo", "");
      rt.crash_mode = args->num_or("crashes", 0.0) != 0.0;
      rt.truncated = args->num_or("truncated", 0.0) != 0.0;
      continue;
    }
    note_time(ts);

    if (ph == "B") {
      Span s;
      s.kind = name;
      s.id = static_cast<std::uint64_t>(args ? args->num_or("span", 0.0) : 0);
      s.pe = pe;
      s.begin_ns = ts;
      s.a_begin = static_cast<std::uint64_t>(args ? args->num_or("a", 0.0) : 0);
      // A begin colliding with an already-open id means the end was lost
      // to ring truncation; the stale one becomes an orphan.
      if (!open.emplace(s.id, std::move(s)).second) ++rt.orphan_begins;
    } else if (ph == "E") {
      const std::uint64_t id =
          static_cast<std::uint64_t>(args ? args->num_or("span", 0.0) : 0);
      const auto it = open.find(id);
      if (it == open.end()) {
        ++rt.orphan_ends;
        continue;
      }
      Span s = std::move(it->second);
      open.erase(it);
      s.end_ns = ts;
      s.a_end = static_cast<std::uint64_t>(args ? args->num_or("a", 0.0) : 0);
      s.b_end = static_cast<std::uint64_t>(args ? args->num_or("b", 0.0) : 0);
      s.closed = true;
      rt.spans.push_back(std::move(s));
    } else if (ph == "X") {
      ++rt.fabric_ops;
      const std::uint64_t dur = to_ns(ev.num_or("dur", 0.0));
      note_time(ts + dur);
      const std::uint64_t id =
          static_cast<std::uint64_t>(args ? args->num_or("span", 0.0) : 0);
      const auto it = open.find(id);
      if (it == open.end()) {
        ++rt.orphan_ops;
        continue;
      }
      TraceOp op;
      op.op = args ? args->str_or("op", "") : "";
      op.target = static_cast<int>(args ? args->num_or("target", -1.0) : -1);
      op.bytes = static_cast<std::uint64_t>(args ? args->num_or("bytes", 0.0)
                                                 : 0);
      op.ts_ns = ts;
      op.dur_ns = dur;
      it->second.ops.push_back(std::move(op));
    } else if (ph == "C") {
      ++rt.counters;
      CounterSample cs;
      cs.name = name;
      cs.pe = pe;
      cs.ts_ns = ts;
      cs.value = static_cast<std::int64_t>(
          std::llround(args ? args->num_or("value", 0.0) : 0.0));
      rt.counter_samples.push_back(std::move(cs));
    } else {
      ++rt.instants;
      if (name == "death_detected") {
        ++rt.deaths_detected;
      } else if (name == "rerouted") {
        ++rt.reroutes;
        rt.rerouted_tasks +=
            static_cast<std::uint64_t>(args ? args->num_or("b", 0.0) : 0);
      }
    }
  }

  rt.orphan_begins += open.size();
  std::sort(rt.spans.begin(), rt.spans.end(),
            [](const Span& x, const Span& y) {
              if (x.begin_ns != y.begin_ns) return x.begin_ns < y.begin_ns;
              if (x.pe != y.pe) return x.pe < y.pe;
              return x.id < y.id;
            });
  return rt;
}

RunTrace parse_chrome_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return parse_chrome_trace(f);
}

// ---------------------------------------------------------------- analyze

namespace {

/// Canonical signature of a span's op multiset: names sorted, counted.
std::string op_signature(const Span& s) {
  std::map<std::string, int> counts;
  for (const TraceOp& op : s.ops) ++counts[op.op];
  std::string sig;
  for (const auto& [name, n] : counts) {
    if (!sig.empty()) sig += ' ';
    sig += name + ':' + std::to_string(n);
  }
  return sig.empty() ? "(none)" : sig;
}

int count_op(const Span& s, const char* name) {
  int n = 0;
  for (const TraceOp& op : s.ops) n += op.op == name ? 1 : 0;
  return n;
}

/// The Fig 2 op-shape check: what a successful steal must look like on
/// the wire for each protocol. `wrapped_gets` allows one extra get when
/// the victim's ring wrapped mid-copy.
void check_success_span(const std::string& protocol, const Span& s,
                        bool crash_mode, std::vector<std::string>& out) {
  auto violation = [&](const std::string& what) {
    if (out.size() >= 16) return;  // cap the noise; counts tell the rest
    std::ostringstream msg;
    msg << protocol << " steal span " << s.id << " (pe " << s.pe
        << " -> victim " << s.victim() << ", t=" << s.begin_ns
        << "ns): " << what << " [ops: " << op_signature(s) << "]";
    out.push_back(msg.str());
  };
  const int gets = count_op(s, "get");
  if (protocol == "sws") {
    // One fused discover+claim fetch-add, one coalesced task-copy get (two
    // when the victim ring wrapped), and one passive completion add per
    // claimed block — a bulk claim lights up several completion slots but
    // still pays a single fetch-add and a single (larger) copy. An
    // empty-mode thief may precede the claim with one read-only amo_fetch
    // probe.
    const int probes = count_op(s, "amo_fetch");
    const int nbi_adds = count_op(s, "nbi_amo_add");
    if (count_op(s, "amo_fetch_add") != 1)
      violation("expected exactly 1 remote fetch-add");
    if (probes > 1) violation("expected at most 1 empty-mode probe fetch");
    if (gets < 1 || gets > 2) violation("expected 1 task-copy get (2 if wrapped)");
    if (nbi_adds < 1 || nbi_adds > 32)
      violation("expected 1 nbi completion add per claimed block (1..32)");
    if (s.ops.size() != 1 + static_cast<std::size_t>(gets + probes + nbi_adds))
      violation("unexpected extra ops in SWS steal");
  } else if (protocol == "sdc") {
    // Lock, metadata fetch, tail claim, unlock, task copy, completion
    // notify — the six-op sequence SWS collapses. Under lock contention
    // each failed cswap adds one more cswap plus one metadata probe get
    // before the steal eventually succeeds. With a crash plan armed the
    // thief also publishes one claim-intent put inside the critical
    // section (docs/resilience.md), so crash-mode traces show two puts.
    const int want_puts = crash_mode ? 2 : 1;
    const int cswaps = count_op(s, "amo_cswap");
    if (cswaps < 1) violation("expected at least 1 lock cswap");
    if (count_op(s, "put") != want_puts)
      violation(crash_mode
                    ? "expected claim-intent put + tail-claim put (crash mode)"
                    : "expected exactly 1 tail-claim put");
    if (count_op(s, "amo_set") != 1) violation("expected exactly 1 unlock set");
    if (count_op(s, "nbi_amo_set") != 1)
      violation("expected exactly 1 nbi completion set");
    if (gets < cswaps + 1 || gets > cswaps + 2)
      violation("expected 1 probe get per failed lock attempt + metadata get "
                "+ task-copy get (1 more if wrapped)");
    if (s.ops.size() != 2 + static_cast<std::size_t>(want_puts + cswaps + gets))
      violation("unexpected extra ops in SDC steal");
  }
}

}  // namespace

AnalyzeReport analyze(const RunTrace& rt, const WindowConfig& wc) {
  AnalyzeReport r;
  r.protocol = rt.protocol;
  r.npes = rt.npes;
  r.truncated = rt.truncated;
  r.duration_ns = rt.duration_ns;
  r.orphan_begins = rt.orphan_begins;
  r.orphan_ends = rt.orphan_ends;
  r.orphan_ops = rt.orphan_ops;

  std::uint64_t total_ops = 0;
  std::uint64_t total_blocking = 0;

  r.deaths_detected = rt.deaths_detected;
  r.reroutes = rt.reroutes;
  r.rerouted_tasks = rt.rerouted_tasks;

  // Victim-distance attribution: rebuild the run's Topology from the
  // trace metadata so each steal span lands in its tier bucket. A trace
  // that names its protocol but carries no topo is an incomplete dump —
  // tier attribution would silently be wrong, so refuse loudly instead.
  r.topo = rt.topo;
  net::Topology topo(rt.npes > 0 ? rt.npes : 1);
  if (!rt.protocol.empty() && rt.topo.empty())
    r.violations.push_back(
        "trace meta lacks topo: re-dump with a current writer (victim-tier "
        "attribution would be silently wrong)");
  if (!rt.topo.empty() && rt.npes > 0) {
    try {
      topo = net::Topology(net::TopologySpec::parse(rt.topo), rt.npes);
    } catch (const std::exception& e) {
      r.violations.push_back(std::string("unusable topo metadata \"") +
                             rt.topo + "\": " + e.what());
    }
  }
  r.ntiers = topo.ntiers();

  r.window_ns = wc.window_ns != 0
                    ? wc.window_ns
                    : std::max<std::uint64_t>(rt.duration_ns / 64, 1000);
  // window index -> (fails, oks, retries) for the pathology scan.
  struct Win {
    std::uint64_t fails = 0, oks = 0, retries = 0;
  };
  std::map<std::uint64_t, Win> windows;

  for (const Span& s : rt.spans) {
    if (s.kind == "release_span") {
      ++r.release_spans;
      continue;
    }
    if (s.kind == "acquire_span") {
      ++r.acquire_spans;
      continue;
    }
    if (s.kind == "recovery") {
      // Lease-paced fencing sweep; the end's b arg counts the fenced
      // tasks handed back to the survivor's scheduler for re-execution.
      ++r.recovery_spans;
      r.tasks_recovered += s.b_end;
      continue;
    }
    if (s.kind != "steal") continue;
    ++r.steal_spans;
    net::Tier tier = 1;
    if (s.pe >= 0 && s.pe < topo.npes() && s.victim() >= 0 &&
        s.victim() < topo.npes())
      tier = topo.distance(s.pe, s.victim());
    if (tier >= 1) ++r.attempts_by_tier[static_cast<std::size_t>(tier - 1)];
    Win& w = windows[s.begin_ns / r.window_ns];
    switch (s.outcome()) {
      case 0:
        ++r.steals_ok;
        ++w.oks;
        if (tier >= 1)
          ++r.steals_ok_by_tier[static_cast<std::size_t>(tier - 1)];
        r.tasks_stolen += s.ntasks();
        r.lat_ok_ns.add(s.duration_ns());
        ++r.signatures[op_signature(s)];
        total_ops += s.ops.size();
        for (const TraceOp& op : s.ops) total_blocking += op.blocking() ? 1 : 0;
        if (!rt.protocol.empty() && !rt.truncated)
          check_success_span(rt.protocol, s, rt.crash_mode, r.violations);
        break;
      case 1:
        ++r.steals_empty;
        ++w.fails;
        r.lat_empty_ns.add(s.duration_ns());
        break;
      default:
        ++r.steals_retry;
        ++w.fails;
        ++w.retries;
        r.lat_retry_ns.add(s.duration_ns());
        break;
    }
  }

  if (r.steals_ok > 0) {
    r.ops_per_success =
        static_cast<double>(total_ops) / static_cast<double>(r.steals_ok);
    r.blocking_per_success =
        static_cast<double>(total_blocking) / static_cast<double>(r.steals_ok);
  }

  for (const auto& [idx, w] : windows) {
    (void)idx;
    r.peak_window_fails = std::max(r.peak_window_fails, w.fails);
    // A storm window: failures dominate (thieves hammering empty or busy
    // victims); churn: the SDC lock bounce pattern, retries specifically.
    if (w.fails >= wc.storm_min_fails && w.fails >= 4 * w.oks)
      ++r.storm_windows;
    // (w.fails counts the retries too, so fails + oks is every attempt.)
    if (w.retries >= wc.churn_min_retries &&
        2 * w.retries >= w.fails + w.oks)
      ++r.churn_windows;
  }

  // A PE that crashes mid-steal never closes its span; those orphans are
  // part of the crash-stop fault model, not a writer bug.
  if (!rt.truncated && !rt.crash_mode &&
      (rt.orphan_begins != 0 || rt.orphan_ends != 0))
    r.violations.push_back(
        "orphaned span begin/end in an untruncated trace (" +
        std::to_string(rt.orphan_begins) + " begins, " +
        std::to_string(rt.orphan_ends) + " ends)");
  return r;
}

SelfCheckVerdict self_check(const AnalyzeReport& r) {
  if (r.protocol.empty())
    return {false, "trace carries no sws_run_meta protocol"};
  if (r.steals_ok == 0 && r.npes != 1)
    return {false, "no successful steals to validate"};
  if (!r.violations.empty())
    return {false, std::to_string(r.violations.size()) + " violation(s)"};
  if (r.steals_ok == 0) return {true, "OK (1-PE run: no steals to validate)"};
  return {true, "OK (" + std::to_string(r.steals_ok) + " successful " +
                    r.protocol + " steals validated)"};
}

// ----------------------------------------------------------------- output

namespace {

void quantile_line(std::ostream& os, const char* label,
                   const sws::LogHistogram& h) {
  os << "  " << std::left << std::setw(26) << label << std::right
     << "n=" << h.count();
  if (h.count() > 0)
    os << "  p50<=" << h.quantile(0.5) << "ns p95<=" << h.quantile(0.95)
       << "ns p99<=" << h.quantile(0.99) << "ns max<" << h.quantile(1.0)
       << "ns";
  os << "\n";
}

void metric_line(std::ostream& os, const char* label, std::uint64_t v) {
  os << "  " << std::left << std::setw(26) << label << std::right << v
     << "\n";
}

}  // namespace

void write_report(std::ostream& os, const AnalyzeReport& r) {
  os << "run: protocol=" << (r.protocol.empty() ? "?" : r.protocol)
     << " npes=" << r.npes << " duration=" << r.duration_ns << "ns"
     << (r.truncated ? " (trace TRUNCATED: ring wrapped)" : "") << "\n";
  os << "steals:\n";
  metric_line(os, "attempts", r.steal_spans);
  metric_line(os, "ok", r.steals_ok);
  metric_line(os, "empty", r.steals_empty);
  metric_line(os, "retry", r.steals_retry);
  metric_line(os, "tasks_stolen", r.tasks_stolen);
  metric_line(os, "releases", r.release_spans);
  metric_line(os, "acquires", r.acquire_spans);
  if (r.ntiers > 1) {
    os << "steal mix by victim tier (topo=" << r.topo << "):\n";
    for (int t = 1; t <= r.ntiers; ++t) {
      const auto i = static_cast<std::size_t>(t - 1);
      os << "  tier " << t << std::left << std::setw(20) << "" << std::right
         << "attempts=" << r.attempts_by_tier[i]
         << " ok=" << r.steals_ok_by_tier[i] << "\n";
    }
  }
  os << "comm per successful steal (Fig 2):\n";
  os << "  " << std::left << std::setw(26) << "ops" << std::right
     << std::fixed << std::setprecision(2) << r.ops_per_success << "\n";
  os << "  " << std::left << std::setw(26) << "blocking ops" << std::right
     << r.blocking_per_success << "\n"
     << std::defaultfloat;
  for (const auto& [sig, n] : r.signatures)
    os << "    " << n << "x  " << sig << "\n";
  os << "latency:\n";
  quantile_line(os, "steal ok", r.lat_ok_ns);
  quantile_line(os, "steal empty", r.lat_empty_ns);
  quantile_line(os, "steal retry", r.lat_retry_ns);
  os << "pathologies (window=" << r.window_ns << "ns):\n";
  metric_line(os, "storm windows", r.storm_windows);
  metric_line(os, "churn windows", r.churn_windows);
  metric_line(os, "peak fails/window", r.peak_window_fails);
  if (r.deaths_detected != 0 || r.recovery_spans != 0 || r.reroutes != 0) {
    os << "recovery summary (crash-stop):\n";
    metric_line(os, "deaths detected", r.deaths_detected);
    metric_line(os, "recovery sweeps", r.recovery_spans);
    metric_line(os, "tasks re-executed", r.tasks_recovered);
    metric_line(os, "reroute events", r.reroutes);
    metric_line(os, "tasks rerouted", r.rerouted_tasks);
  }
  if (r.orphan_begins != 0 || r.orphan_ends != 0 || r.orphan_ops != 0) {
    os << "orphans:\n";
    metric_line(os, "span begins", r.orphan_begins);
    metric_line(os, "span ends", r.orphan_ends);
    metric_line(os, "fabric ops", r.orphan_ops);
  }
  if (!r.violations.empty()) {
    os << "protocol violations (" << r.violations.size() << "):\n";
    for (const std::string& v : r.violations) os << "  ! " << v << "\n";
  }
}

namespace {

void diff_u64(std::ostream& os, const char* label, std::uint64_t a,
              std::uint64_t b) {
  os << "  " << std::left << std::setw(26) << label << std::right
     << std::setw(14) << a << std::setw(14) << b;
  if (a != 0) {
    const double rel = (static_cast<double>(b) - static_cast<double>(a)) /
                       static_cast<double>(a) * 100.0;
    os << "  " << std::showpos << std::fixed << std::setprecision(1) << rel
       << "%" << std::noshowpos << std::defaultfloat;
  }
  os << "\n";
}

void diff_f(std::ostream& os, const char* label, double a, double b) {
  os << "  " << std::left << std::setw(26) << label << std::right
     << std::setw(14) << std::fixed << std::setprecision(2) << a
     << std::setw(14) << b << std::defaultfloat << "\n";
}

}  // namespace

void write_diff(std::ostream& os, const AnalyzeReport& a,
                const AnalyzeReport& b) {
  os << "A/B: A=" << (a.protocol.empty() ? "?" : a.protocol)
     << " B=" << (b.protocol.empty() ? "?" : b.protocol) << "  (B vs A)\n";
  os << "  " << std::left << std::setw(26) << "" << std::right
     << std::setw(14) << "A" << std::setw(14) << "B" << "\n";
  diff_u64(os, "duration_ns", a.duration_ns, b.duration_ns);
  diff_u64(os, "steal attempts", a.steal_spans, b.steal_spans);
  diff_u64(os, "steals ok", a.steals_ok, b.steals_ok);
  diff_u64(os, "steals empty", a.steals_empty, b.steals_empty);
  diff_u64(os, "steals retry", a.steals_retry, b.steals_retry);
  diff_u64(os, "tasks stolen", a.tasks_stolen, b.tasks_stolen);
  diff_f(os, "ops/success", a.ops_per_success, b.ops_per_success);
  diff_f(os, "blocking/success", a.blocking_per_success,
         b.blocking_per_success);
  diff_u64(os, "steal-ok p50_ns", a.lat_ok_ns.quantile(0.5),
           b.lat_ok_ns.quantile(0.5));
  diff_u64(os, "steal-ok p99_ns", a.lat_ok_ns.quantile(0.99),
           b.lat_ok_ns.quantile(0.99));
  diff_u64(os, "storm windows", a.storm_windows, b.storm_windows);
  diff_u64(os, "churn windows", a.churn_windows, b.churn_windows);
  if (a.deaths_detected + b.deaths_detected + a.recovery_spans +
          b.recovery_spans !=
      0) {
    diff_u64(os, "deaths detected", a.deaths_detected, b.deaths_detected);
    diff_u64(os, "tasks re-executed", a.tasks_recovered, b.tasks_recovered);
    diff_u64(os, "tasks rerouted", a.rerouted_tasks, b.rerouted_tasks);
  }
}

// ----------------------------------------------------------- critical path

namespace {

/// Total length of the union of [lo, hi) intervals (merges overlaps so
/// nothing is double-blamed).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>>& iv) {
  if (iv.empty()) return 0;
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t lo = iv.front().first;
  std::uint64_t hi = iv.front().second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first > hi) {
      total += hi - lo;
      lo = iv[i].first;
      hi = iv[i].second;
    } else {
      hi = std::max(hi, iv[i].second);
    }
  }
  return total + (hi - lo);
}

/// True for span kinds that count as steal-search overhead (not useful
/// work) when they overlap a critical-path local segment.
bool is_search_kind(const Span& s) {
  if (s.kind == "steal") return s.outcome() != 0;
  return s.kind == "release_span" || s.kind == "acquire_span" ||
         s.kind == "recovery";
}

}  // namespace

CriticalPath critical_path(const RunTrace& rt) {
  CriticalPath cp;
  cp.path_ns = rt.duration_ns;
  if (rt.spans.empty()) return cp;

  // Per-PE indexes: all spans (begin-sorted, inherited from rt.spans) for
  // the blame overlap scan, successful steals (end-sorted) for the walk.
  std::unordered_map<int, std::vector<const Span*>> by_pe;
  std::unordered_map<int, std::vector<const Span*>> ok_steals;
  const Span* last = nullptr;
  for (const Span& s : rt.spans) {
    by_pe[s.pe].push_back(&s);
    if (s.kind == "steal" && s.outcome() == 0) ok_steals[s.pe].push_back(&s);
    if (last == nullptr || s.end_ns > last->end_ns ||
        (s.end_ns == last->end_ns && s.pe < last->pe))
      last = &s;
  }
  for (auto& [pe, v] : ok_steals) {
    (void)pe;
    std::sort(v.begin(), v.end(), [](const Span* x, const Span* y) {
      return x->end_ns < y->end_ns;
    });
  }

  cp.end_pe = last->pe;
  cp.hop_pes.push_back(cp.end_pe);

  // Blame one local segment (lo, hi] on PE `pe`: search-kind span overlap
  // is search time, the remainder is work (task bodies + park waits — the
  // trace does not span those, so they are the unspanned residue).
  const auto blame_local = [&](int pe, std::uint64_t lo, std::uint64_t hi) {
    if (hi <= lo) return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    const auto it = by_pe.find(pe);
    if (it != by_pe.end()) {
      for (const Span* s : it->second) {
        if (s->begin_ns >= hi) break;  // begin-sorted: nothing later overlaps
        if (s->end_ns <= lo || !is_search_kind(*s)) continue;
        iv.emplace_back(std::max(lo, s->begin_ns), std::min(hi, s->end_ns));
      }
    }
    const std::uint64_t search = union_length(iv);
    cp.search_ns += search;
    cp.work_ns += (hi - lo) - search;
  };

  int cur_pe = cp.end_pe;
  std::uint64_t t = rt.duration_ns;
  // Walk backwards: the latest successful steal at or before t is the
  // dependency that delivered cur_pe's work; everything after it on cur_pe
  // is local, the span itself is a hop, and the chain continues at the
  // victim. Hop count is bounded by the span count (each hop moves t to an
  // earlier steal begin), but guard anyway against degenerate
  // zero-duration cycles.
  for (std::size_t guard = 0; guard <= rt.spans.size(); ++guard) {
    const Span* hop = nullptr;
    const auto it = ok_steals.find(cur_pe);
    if (it != ok_steals.end()) {
      // Latest success with end_ns <= t (end-sorted vector).
      const auto& v = it->second;
      auto pos = std::upper_bound(
          v.begin(), v.end(), t, [](std::uint64_t tt, const Span* s) {
            return tt < s->end_ns;
          });
      if (pos != v.begin()) hop = *(pos - 1);
    }
    if (hop == nullptr || hop->begin_ns >= t) {
      // Root of the chain: everything back to t=0 is local to this PE.
      blame_local(cur_pe, 0, t);
      break;
    }
    blame_local(cur_pe, hop->end_ns, t);
    // Hop blame: fabric-op occupancy inside the steal span vs protocol
    // residue (serialization, retries between ops, victim-side latency).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const TraceOp& op : hop->ops) {
      const std::uint64_t lo = std::max(hop->begin_ns, op.ts_ns);
      const std::uint64_t hi =
          std::min(hop->end_ns, op.ts_ns + op.dur_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    const std::uint64_t fabric = union_length(iv);
    cp.steal_fabric_ns += fabric;
    cp.steal_proto_ns += hop->duration_ns() - fabric;
    ++cp.steal_hops;
    t = hop->begin_ns;
    cur_pe = hop->victim();
    cp.hop_pes.push_back(cur_pe);
  }
  return cp;
}

ConvoyReport convoy_report(const RunTrace& rt, const WindowConfig& wc) {
  ConvoyReport cr;
  cr.window_ns = wc.window_ns != 0
                     ? wc.window_ns
                     : std::max<std::uint64_t>(rt.duration_ns / 64, 1000);
  struct Pressure {
    std::uint64_t attempts = 0, ok = 0;
    std::map<std::uint64_t, std::uint64_t> windows;
  };
  std::map<int, Pressure> per_victim;
  for (const Span& s : rt.spans) {
    if (s.kind != "steal") continue;
    Pressure& p = per_victim[s.victim()];
    ++p.attempts;
    if (s.outcome() == 0) ++p.ok;
    ++p.windows[s.begin_ns / cr.window_ns];
  }
  for (const auto& [pe, p] : per_victim) {
    ConvoyVictim v;
    v.pe = pe;
    v.inbound_attempts = p.attempts;
    v.inbound_ok = p.ok;
    for (const auto& [w, n] : p.windows) {
      if (n > v.peak_window_attempts) {
        v.peak_window_attempts = n;
        v.peak_window_start_ns = w * cr.window_ns;
      }
    }
    cr.victims.push_back(v);
  }
  std::sort(cr.victims.begin(), cr.victims.end(),
            [](const ConvoyVictim& a, const ConvoyVictim& b) {
              if (a.peak_window_attempts != b.peak_window_attempts)
                return a.peak_window_attempts > b.peak_window_attempts;
              if (a.inbound_attempts != b.inbound_attempts)
                return a.inbound_attempts > b.inbound_attempts;
              return a.pe < b.pe;
            });
  return cr;
}

void write_critical_path(std::ostream& os, const CriticalPath& cp) {
  os << "critical path (termination chain, walked backwards):\n";
  metric_line(os, "path_ns", cp.path_ns);
  metric_line(os, "steal hops", cp.steal_hops);
  const auto pct = [&](std::uint64_t v) {
    return cp.path_ns != 0
               ? 100.0 * static_cast<double>(v) /
                     static_cast<double>(cp.path_ns)
               : 0.0;
  };
  const auto blame = [&](const char* label, std::uint64_t v) {
    os << "  " << std::left << std::setw(26) << label << std::right << v
       << "  (" << std::fixed << std::setprecision(1) << pct(v) << "%)"
       << std::defaultfloat << "\n";
  };
  blame("task work + park", cp.work_ns);
  blame("steal search", cp.search_ns);
  blame("hop steal fabric", cp.steal_fabric_ns);
  blame("hop steal protocol", cp.steal_proto_ns);
  os << "  chain (end pe first):";
  const std::size_t shown = std::min<std::size_t>(cp.hop_pes.size(), 16);
  for (std::size_t i = 0; i < shown; ++i) os << " " << cp.hop_pes[i];
  if (cp.hop_pes.size() > shown)
    os << " ... (" << cp.hop_pes.size() - shown << " more)";
  os << "\n";
}

void write_convoy(std::ostream& os, const ConvoyReport& cr, std::size_t top) {
  os << "hot victims (inbound steal pressure, window=" << cr.window_ns
     << "ns):\n";
  if (cr.victims.empty()) {
    os << "  (no steal spans in trace)\n";
    return;
  }
  const std::size_t shown = std::min(top, cr.victims.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const ConvoyVictim& v = cr.victims[i];
    os << "  pe " << std::left << std::setw(6) << v.pe << std::right
       << "inbound=" << v.inbound_attempts << " (ok=" << v.inbound_ok
       << ")  peak=" << v.peak_window_attempts << " attempts @t="
       << v.peak_window_start_ns << "ns\n";
  }
  if (cr.victims.size() > shown)
    os << "  ... " << cr.victims.size() - shown << " more victims\n";
}

// ------------------------------------------------------------- time series

const TimeSeriesData::Series* TimeSeriesData::find(
    const std::string& name) const noexcept {
  for (const Series& s : series)
    if (s.name == name) return &s;
  return nullptr;
}

TimeSeriesData parse_timeseries(std::istream& is) {
  JsonParser parser(is);
  const JsonValue root = parser.parse();
  if (root.type != JsonValue::Type::kObject ||
      root.str_or("schema", "") != "sws-timeseries")
    throw std::runtime_error(
        "timeseries JSON: not an sws-timeseries document");

  TimeSeriesData ts;
  ts.interval_ns =
      static_cast<std::uint64_t>(root.num_or("interval_ns", 0.0));
  ts.truncated = root.num_or("truncated", 0.0) != 0.0;
  ts.protocol = root.str_or("protocol", "");
  ts.npes = static_cast<int>(root.num_or("npes", 0.0));

  const JsonValue* t = root.get("t");
  if (t != nullptr && t->type == JsonValue::Type::kArray)
    for (const JsonValue& v : t->arr)
      ts.t.push_back(static_cast<std::uint64_t>(v.number));

  const JsonValue* series = root.get("series");
  if (series != nullptr && series->type == JsonValue::Type::kArray) {
    for (const JsonValue& sv : series->arr) {
      if (sv.type != JsonValue::Type::kObject) continue;
      TimeSeriesData::Series s;
      s.name = sv.str_or("name", "");
      s.delta = sv.str_or("mode", "delta") == "delta";
      const JsonValue* vals = sv.get("v");
      if (vals != nullptr && vals->type == JsonValue::Type::kArray)
        for (const JsonValue& v : vals->arr)
          s.v.push_back(static_cast<std::int64_t>(std::llround(v.number)));
      if (s.v.size() != ts.t.size())
        throw std::runtime_error("timeseries JSON: series \"" + s.name +
                                 "\" length disagrees with \"t\"");
      ts.series.push_back(std::move(s));
    }
  }
  return ts;
}

TimeSeriesData parse_timeseries_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open timeseries file: " + path);
  return parse_timeseries(f);
}

namespace {

/// The acct.* category series names, mirroring core::pool_phase_name (the
/// analysis layer deliberately does not link against the scheduler).
constexpr const char* kAcctCategories[] = {
    "working",   "probing",    "stealing",         "parked",
    "blocked_nbi", "recovering", "idle_terminating",
};

}  // namespace

std::vector<std::string> check_accounting(const TimeSeriesData& ts) {
  std::vector<std::string> out;
  const TimeSeriesData::Series* elapsed = ts.find("acct.elapsed_ns");
  if (elapsed == nullptr) return out;  // no accounting series: nothing to do

  std::vector<const TimeSeriesData::Series*> cats;
  for (const char* c : kAcctCategories) {
    const auto* s = ts.find(std::string("acct.") + c);
    if (s == nullptr) {
      out.push_back(std::string("accounting series missing: acct.") + c);
      return out;
    }
    cats.push_back(s);
  }
  for (std::size_t i = 0; i < ts.t.size(); ++i) {
    std::int64_t sum = 0;
    for (const auto* s : cats) sum += s->v[i];
    if (sum != elapsed->v[i]) {
      std::ostringstream msg;
      msg << "accounting mismatch at t=" << ts.t[i] << "ns: sum(categories)="
          << sum << " != elapsed=" << elapsed->v[i] << " (delta "
          << sum - elapsed->v[i] << "ns)";
      out.push_back(msg.str());
      if (out.size() >= 16) {
        out.push_back("... further mismatches suppressed");
        break;
      }
    }
  }
  return out;
}

void write_timeseries_summary(std::ostream& os, const TimeSeriesData& ts) {
  os << "time series: interval=" << ts.interval_ns << "ns samples="
     << ts.t.size()
     << (ts.protocol.empty() ? "" : " protocol=" + ts.protocol);
  if (ts.npes > 0) os << " npes=" << ts.npes;
  if (ts.truncated) os << " (TRUNCATED at sample cap)";
  os << "\n";
  if (ts.t.empty()) return;

  const TimeSeriesData::Series* elapsed = ts.find("acct.elapsed_ns");
  if (elapsed != nullptr) {
    // Utilization timeline: per-window fraction of all PEs' elapsed time
    // spent in kWorking, rendered as a compact bar per sampled window.
    const TimeSeriesData::Series* working = ts.find("acct.working");
    if (working != nullptr) {
      static const char kBars[] = " .:-=+*#%@";
      os << "utilization (acct.working / acct.elapsed_ns per window, "
            "' '=0% '@'=100%):\n  [";
      for (std::size_t i = 0; i < ts.t.size(); ++i) {
        double frac = 0.0;
        if (elapsed->v[i] > 0)
          frac = static_cast<double>(working->v[i]) /
                 static_cast<double>(elapsed->v[i]);
        frac = std::min(1.0, std::max(0.0, frac));
        os << kBars[static_cast<std::size_t>(frac * 9.0 + 0.5)];
      }
      os << "]\n";
    }
    // Whole-run phase breakdown (sum of per-window deltas per category).
    std::int64_t total_elapsed = 0;
    for (const std::int64_t v : elapsed->v) total_elapsed += v;
    os << "phase breakdown (all PEs):\n";
    for (const char* c : kAcctCategories) {
      const auto* s = ts.find(std::string("acct.") + c);
      if (s == nullptr) continue;
      std::int64_t total = 0;
      for (const std::int64_t v : s->v) total += v;
      os << "  " << std::left << std::setw(26)
         << (std::string("acct.") + c) << std::right << total;
      if (total_elapsed > 0)
        os << "  (" << std::fixed << std::setprecision(1)
           << 100.0 * static_cast<double>(total) /
                  static_cast<double>(total_elapsed)
           << "%)" << std::defaultfloat;
      os << "\n";
    }
  }
  // Steal / fabric activity over the run, if those series were sampled.
  const auto total_of = [&](const char* name) -> std::int64_t {
    const auto* s = ts.find(name);
    if (s == nullptr) return -1;
    std::int64_t total = 0;
    for (const std::int64_t v : s->v) total += v;
    return total;
  };
  const std::int64_t tasks = total_of("pool.tasks_executed");
  const std::int64_t steals = total_of("pool.steals_ok");
  const std::int64_t attempts = total_of("pool.steal_attempts");
  const std::int64_t remote = total_of("fabric.remote_ops");
  if (tasks >= 0 || steals >= 0 || remote >= 0) {
    os << "activity totals:\n";
    if (tasks >= 0)
      metric_line(os, "tasks executed", static_cast<std::uint64_t>(tasks));
    if (attempts >= 0)
      metric_line(os, "steal attempts",
                  static_cast<std::uint64_t>(attempts));
    if (steals >= 0)
      metric_line(os, "steals ok", static_cast<std::uint64_t>(steals));
    if (remote >= 0)
      metric_line(os, "remote fabric ops",
                  static_cast<std::uint64_t>(remote));
  }
}

}  // namespace sws::obs
