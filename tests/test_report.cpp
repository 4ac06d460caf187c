// JSON emitter round-trip: harness::emit_json / Table::write_json output
// is fed through a small strict JSON parser and checked for shape (one
// object per row, keys = headers in order), escaping (quotes, newlines,
// control characters survive a parse), and numeric typing (cells that
// look like JSON numbers are emitted unquoted and parse back to the
// same value; number-ish strings like "007" stay strings).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hpp"

namespace {

using emr::harness::Table;

// ------------------------------------------------------ minimal parser
//
// Strict by design: exactly the grammar emit_json claims to produce —
// an array of flat objects whose values are strings or numbers. Any
// deviation (trailing comma, unquoted key, bad escape) fails the test.

struct JsonValue {
  enum Kind { kString, kNumber } kind = kString;
  std::string str;   // kString: decoded value
  double num = 0;    // kNumber: parsed value
  std::string raw;   // kNumber: the literal as emitted
};

using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(std::vector<JsonObject>* out) {
    skip_ws();
    if (!eat('[')) return false;
    skip_ws();
    if (peek() == ']') return ++pos_, finish();
    for (;;) {
      JsonObject obj;
      if (!parse_object(&obj)) return false;
      out->push_back(std::move(obj));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      break;
    }
    if (!eat(']')) return false;
    return finish();
  }

 private:
  bool finish() {
    skip_ws();
    return pos_ == s_.size();
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_object(JsonObject* obj) {
    skip_ws();
    if (!eat('{')) return false;
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      JsonValue v;
      if (peek() == '"') {
        v.kind = JsonValue::kString;
        if (!parse_string(&v.str)) return false;
      } else {
        v.kind = JsonValue::kNumber;
        if (!parse_number(&v)) return false;
      }
      obj->emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      break;
    }
    return eat('}');
  }

  bool parse_string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw ctrl
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= 10u + (h - 'a');
            else if (h >= 'A' && h <= 'F') code |= 10u + (h - 'A');
            else return false;
          }
          if (code > 0x7f) return false;  // emitter only escapes ASCII ctrl
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    }
    return eat('"');
  }

  bool parse_number(JsonValue* v) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    const bool leading_zero = peek() == '0';
    ++pos_;
    if (leading_zero && std::isdigit(static_cast<unsigned char>(peek()))) {
      return false;  // 007 is not a JSON number
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    v->raw = s_.substr(start, pos_ - start);
    v->num = std::stod(v->raw);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::vector<JsonObject> parse_or_die(const std::string& text) {
  std::vector<JsonObject> rows;
  Parser p(text);
  EXPECT_TRUE(p.parse(&rows)) << "emit_json produced invalid JSON:\n"
                              << text;
  return rows;
}

// ----------------------------------------------------------------- tests

TEST(Report, JsonRoundTripShapeAndTypes) {
  Table t({"threads", "reclaimer", "Mops/s", "note"});
  t.add_row({"4", "debra_af", "12.50", "plain"});
  t.add_row({"-8", "token", "1e3", "0.5"});
  t.add_row({"007", "he", "3.25", "-0"});  // 007: string; -0: number

  std::ostringstream os;
  emr::harness::emit_json(os, t);
  const std::vector<JsonObject> rows = parse_or_die(os.str());

  ASSERT_EQ(rows.size(), 3u);
  for (const JsonObject& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0].first, "threads");
    EXPECT_EQ(row[1].first, "reclaimer");
    EXPECT_EQ(row[2].first, "Mops/s");
    EXPECT_EQ(row[3].first, "note");
  }

  EXPECT_EQ(rows[0][0].second.kind, JsonValue::kNumber);
  EXPECT_DOUBLE_EQ(rows[0][0].second.num, 4);
  EXPECT_EQ(rows[0][1].second.kind, JsonValue::kString);
  EXPECT_EQ(rows[0][1].second.str, "debra_af");
  EXPECT_DOUBLE_EQ(rows[0][2].second.num, 12.5);

  EXPECT_DOUBLE_EQ(rows[1][0].second.num, -8);
  EXPECT_EQ(rows[1][2].second.kind, JsonValue::kNumber);
  EXPECT_DOUBLE_EQ(rows[1][2].second.num, 1000);
  EXPECT_EQ(rows[1][3].second.kind, JsonValue::kNumber);
  EXPECT_DOUBLE_EQ(rows[1][3].second.num, 0.5);

  // Number-lookalikes outside the JSON grammar must stay strings,
  // while edge cases inside it (-0) stay typed.
  EXPECT_EQ(rows[2][0].second.kind, JsonValue::kString);
  EXPECT_EQ(rows[2][0].second.str, "007");
  EXPECT_EQ(rows[2][3].second.kind, JsonValue::kNumber);
  EXPECT_DOUBLE_EQ(rows[2][3].second.num, 0);
}

TEST(Report, JsonEscapesHostileCells) {
  Table t({"name \"quoted\"", "payload"});
  t.add_row({"back\\slash", "line\nbreak\tand\ttabs"});
  t.add_row({"ctrl\x01char", "comma, \"quote\""});

  std::ostringstream os;
  emr::harness::emit_json(os, t);
  const std::vector<JsonObject> rows = parse_or_die(os.str());

  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].first, "name \"quoted\"");
  EXPECT_EQ(rows[0][0].second.str, "back\\slash");
  EXPECT_EQ(rows[0][1].second.str, "line\nbreak\tand\ttabs");
  EXPECT_EQ(rows[1][0].second.str, std::string("ctrl\x01char"));
  EXPECT_EQ(rows[1][1].second.str, "comma, \"quote\"");
}

TEST(Report, JsonShortRowsArePaddedToHeaders) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});  // add_row pads with empty cells
  std::ostringstream os;
  emr::harness::emit_json(os, t);
  const std::vector<JsonObject> rows = parse_or_die(os.str());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][0].second.num, 1);
  EXPECT_EQ(rows[0][1].second.kind, JsonValue::kString);
  EXPECT_EQ(rows[0][1].second.str, "");
  EXPECT_EQ(rows[0][2].second.str, "");
}

TEST(Report, JsonEmptyTableIsAnEmptyArray) {
  Table t({"x"});
  std::ostringstream os;
  emr::harness::emit_json(os, t);
  const std::vector<JsonObject> rows = parse_or_die(os.str());
  EXPECT_TRUE(rows.empty());
}

TEST(Report, WriteJsonFileMatchesEmitJson) {
  Table t({"k", "v"});
  t.add_row({"threads", "16"});
  const std::string path = ::testing::TempDir() + "emr_test_report.json";
  ASSERT_TRUE(t.write_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream file_text;
  file_text << in.rdbuf();

  std::ostringstream os;
  emr::harness::emit_json(os, t);
  EXPECT_EQ(file_text.str(), os.str());
  std::remove(path.c_str());
}

TEST(Report, WriteJsonFailsCleanlyOnBadPath) {
  Table t({"x"});
  t.add_row({"1"});
  EXPECT_FALSE(t.write_json("/nonexistent-dir-emr/out.json"));
}

// A degenerate measurement window used to print "inf"/"nan" straight
// into the numeric column and break the artifact. fixed() now maps
// non-finite values to the words, which fall outside the JSON number
// grammar and therefore get quoted — the file stays parseable.
TEST(Report, NonFiniteCellsStayParseableStrings) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(emr::harness::fixed(inf, 2), "inf");
  EXPECT_EQ(emr::harness::fixed(-inf, 3), "-inf");
  EXPECT_EQ(emr::harness::fixed(nan, 1), "nan");

  Table t({"mops", "p999_us"});
  t.add_row({emr::harness::fixed(inf, 2), emr::harness::fixed(nan, 2)});
  t.add_row({emr::harness::fixed(1.5, 2), emr::harness::fixed(-inf, 2)});

  std::ostringstream os;
  emr::harness::emit_json(os, t);
  const std::vector<JsonObject> rows = parse_or_die(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].second.kind, JsonValue::kString);
  EXPECT_EQ(rows[0][0].second.str, "inf");
  EXPECT_EQ(rows[0][1].second.kind, JsonValue::kString);
  EXPECT_EQ(rows[0][1].second.str, "nan");
  EXPECT_EQ(rows[1][0].second.kind, JsonValue::kNumber);
  EXPECT_DOUBLE_EQ(rows[1][0].second.num, 1.5);
  EXPECT_EQ(rows[1][1].second.str, "-inf");
}

// The committed snapshot at the repo root must parse with this same
// strict grammar, carry the columns the latency figure promises,
// numerically typed, and hold exactly the rows the figure writes.
// EMR_SOURCE_DIR comes from CMake.
TEST(Report, CommittedLatencySnapshotParses) {
  const std::string path =
      std::string(EMR_SOURCE_DIR) + "/BENCH_fig_latency.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed snapshot: " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<JsonObject> rows = parse_or_die(text.str());

  const char* const kNumeric[] = {
      "threads",     "mops",        "p50_us",      "p99_us",
      "p999_us",     "max_us",      "ins_p999_us", "ers_p999_us",
      "lkp_p999_us", "ops",         "penalty_ns"};
  const char* const kString[] = {"reclaimer", "schedule", "clock", "pin"};
  std::vector<std::string> cells;
  for (const JsonObject& row : rows) {
    auto find = [&](const std::string& key) -> const JsonValue* {
      for (const auto& [k, v] : row) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    for (const char* key : kNumeric) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kNumber) << key << " = " << v->str;
    }
    for (const char* key : kString) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kString) << key;
      EXPECT_FALSE(v->str.empty()) << key;
    }
    cells.push_back(find("reclaimer")->str);
  }
  // One row per schedule: batch, _af, _adaptive.
  EXPECT_EQ(cells,
            (std::vector<std::string>{"hp", "hp_af", "hp_adaptive"}));
}

TEST(Report, CommittedQueueSnapshotParses) {
  const std::string path =
      std::string(EMR_SOURCE_DIR) + "/BENCH_fig_queue.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed snapshot: " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<JsonObject> rows = parse_or_die(text.str());

  const char* const kNumeric[] = {
      "producers", "threads",      "mops",    "enq_p999_us",
      "deq_p999_us", "remote_share", "enq_ops", "deq_ops",
      "penalty_ns"};
  const char* const kString[] = {"layout", "ds",    "reclaimer",
                                 "schedule", "clock", "pin"};
  std::vector<std::string> cells;
  for (const JsonObject& row : rows) {
    auto find = [&](const std::string& key) -> const JsonValue* {
      for (const auto& [k, v] : row) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    for (const char* key : kNumeric) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kNumber) << key << " = " << v->str;
    }
    for (const char* key : kString) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kString) << key;
      EXPECT_FALSE(v->str.empty()) << key;
    }
    // The share is a ratio, and the layout tags must match the producer
    // split that defines them.
    const double share = find("remote_share")->num;
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
    const std::string& layout = find("layout")->str;
    if (layout == "sym") {
      EXPECT_DOUBLE_EQ(find("producers")->num, 0) << "sym means no split";
    } else {
      EXPECT_EQ(layout, "asym");
      EXPECT_GT(find("producers")->num, 0);
    }
    cells.push_back(layout + " " + find("reclaimer")->str);
  }
  // One row per layout x schedule: {sym, asym} x {batch, _af,
  // _adaptive}.
  EXPECT_EQ(cells, (std::vector<std::string>{
                       "sym hp", "sym hp_af", "sym hp_adaptive", "asym hp",
                       "asym hp_af", "asym hp_adaptive"}));
}

TEST(Report, CommittedHomeflushSnapshotParses) {
  const std::string path =
      std::string(EMR_SOURCE_DIR) + "/BENCH_fig_homeflush.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed snapshot: " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<JsonObject> rows = parse_or_die(text.str());

  const char* const kNumeric[] = {
      "flush_batch", "producers",    "threads",
      "mops",        "enq_p999_us",  "deq_p999_us",
      "remote_share", "stashed",     "flushed",
      "stash_backlog_end", "peak_garbage", "penalty_ns"};
  const char* const kString[] = {"reclaimer", "schedule", "ds", "clock",
                                 "pin"};
  std::vector<std::string> cells;
  for (const JsonObject& row : rows) {
    auto find = [&](const std::string& key) -> const JsonValue* {
      for (const auto& [k, v] : row) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    for (const char* key : kNumeric) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kNumber) << key << " = " << v->str;
    }
    for (const char* key : kString) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kString) << key;
      EXPECT_FALSE(v->str.empty()) << key;
    }
    const double share = find("remote_share")->num;
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
    // The stash ledger a committed snapshot must witness: routed rows
    // stashed and flushed every rerouted block (nothing stranded at
    // teardown), control rows never touched the routing layer.
    const std::string& reclaimer = find("reclaimer")->str;
    const bool hf = reclaimer.size() > 3 &&
                    reclaimer.compare(reclaimer.size() - 3, 3, "_hf") == 0;
    EXPECT_DOUBLE_EQ(find("stash_backlog_end")->num, 0) << reclaimer;
    EXPECT_DOUBLE_EQ(find("stashed")->num, find("flushed")->num)
        << reclaimer;
    if (hf) {
      EXPECT_GT(find("stashed")->num, 0) << reclaimer;
    } else {
      EXPECT_DOUBLE_EQ(find("stashed")->num, 0) << reclaimer;
    }
    cells.push_back(reclaimer + " fb=" +
                    std::to_string(static_cast<long long>(
                        find("flush_batch")->num)));
  }
  // The non-hf control, the two _hf schedule forms, and the two
  // flush-batch sweep points.
  EXPECT_EQ(cells, (std::vector<std::string>{
                       "hp_af fb=64", "hp_af_hf fb=64", "hp_adaptive_hf fb=64",
                       "hp_af_hf fb=16", "hp_af_hf fb=4096"}));
}

TEST(Report, CommittedServiceSnapshotParses) {
  const std::string path =
      std::string(EMR_SOURCE_DIR) + "/BENCH_fig_service.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed snapshot: " << path;
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<JsonObject> rows = parse_or_die(text.str());
  // closed-cal + light/over x two seeds + determinism repeats + the two
  // tenant cells.
  ASSERT_GE(rows.size(), 7u);

  const char* const kNumeric[] = {
      "threads",      "rate_ops",     "offered",        "completed",
      "mops",         "q_p50_us",     "q_p999_us",      "svc_p999_us",
      "peak_backlog", "mean_backlog", "daemon_drained", "penalty_ns"};
  const char* const kString[] = {"scenario", "arrival", "reclaimer",
                                 "daemon", "sched_hash", "clock", "pin"};
  bool saw_open_loop = false;
  for (const JsonObject& row : rows) {
    auto find = [&](const std::string& key) -> const JsonValue* {
      for (const auto& [k, v] : row) {
        if (k == key) return &v;
      }
      return nullptr;
    };
    for (const char* key : kNumeric) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kNumber) << key << " = " << v->str;
    }
    for (const char* key : kString) {
      const JsonValue* v = find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_EQ(v->kind, JsonValue::kString) << key;
      EXPECT_FALSE(v->str.empty()) << key;
    }
    // Open-loop rows stamp the schedule hash as "0x..." — the prefix
    // keeps the cell a JSON string even when the hex digits happen to
    // all be decimal.
    const JsonValue* hash = find("sched_hash");
    if (hash->str != "-") {
      saw_open_loop = true;
      EXPECT_EQ(hash->str.compare(0, 2, "0x"), 0) << hash->str;
      EXPECT_EQ(hash->str.size(), 18u) << hash->str;
    }
  }
  EXPECT_TRUE(saw_open_loop)
      << "the snapshot must contain open-loop service rows";
}

}  // namespace
