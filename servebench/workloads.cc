#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace servebench {

namespace {

using fuzzydb::Rng;

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

/// `base` moved by up to 5% either way: the seed changes the constants
/// but not the cost of a statement, so runs on different seeds measure
/// the same amount of work.
int Jitter(Rng& rng, int base) {
  const int spread = std::max(1, base / 20);
  return base + static_cast<int>(rng.UniformInt(-spread, spread));
}

// Each template is instantiated once per variant; the variants are a
// fixed design of filter levels, so every seed's pool has the same mix.
struct Template {
  std::string name;
  std::function<std::string(Rng&, int variant)> make;
};

void FillPool(const std::vector<Template>& templates, int variants, Rng& rng,
              Workload* workload) {
  for (size_t t = 0; t < templates.size(); ++t) {
    workload->templates.push_back(templates[t].name);
    for (int v = 0; v < variants; ++v) {
      workload->pool.push_back(templates[t].make(rng, v));
      workload->pool_template.push_back(static_cast<int>(t));
    }
  }
}

// olap_nested: the paper's query types over the type J dataset
// (R(X, Y, U), S(Z, V), |R| = |S| = 8192, fan-out 7) plus T3 for the
// three-level chain. Eight variants per type: an outer filter on R.X
// at four levels (none, 64, 512, 2048 rows), with and without a WITH
// threshold, and an inner filter on S.Z on odd variants, so answers
// range from a handful of rows to about 8k.
void MakeOlapNested(uint64_t seed, Workload* w) {
  w->server_flags = {"--workers=1"};
  w->load = {"SET threads 1",
             ".gen typej " + std::to_string(seed) + " 8192 8192 7",
             ".gen rand T3 " + std::to_string(seed + 1) + " 2 512"};
  w->naive_load = {"SET threads 1",
                   ".gen typej " + std::to_string(seed) + " 192 192 7",
                   ".gen rand T3 " + std::to_string(seed + 1) + " 2 48"};
  w->probe_select = "SELECT R.X FROM R WHERE R.X < 1;";

  const auto outer = [](Rng& rng, int v) -> std::string {
    static const int kLevels[] = {0, 64, 512, 2048};
    const int level = kLevels[v % 4];
    if (level == 0) return "";
    return "R.X < " + std::to_string(Jitter(rng, level)) + " AND ";
  };
  const auto inner = [](Rng& rng, int v) -> std::string {
    if (v % 2 == 0) return "";
    return "S.Z < " + std::to_string(Jitter(rng, 9000));
  };
  const auto with = [](Rng& rng, int v) -> std::string {
    if (v < 4) return ";";
    return " WITH D >= " +
           Num(0.05 * static_cast<double>(rng.UniformInt(6, 18))) + ";";
  };
  // `R.Y <predicate> (SELECT <select> FROM S WHERE S.V = R.U ...)`.
  const auto correlated = [&](std::string predicate, std::string select) {
    return [=](Rng& rng, int v) {
      const std::string o = outer(rng, v);
      const std::string i = inner(rng, v);
      return "SELECT R.X FROM R WHERE " + o + "R.Y " + predicate +
             " (SELECT " + select + " FROM S WHERE S.V = R.U" +
             (i.empty() ? "" : " AND " + i) + ")" + with(rng, v);
    };
  };
  const std::vector<Template> templates = {
      {"N",
       [&](Rng& rng, int v) {
         const std::string o = outer(rng, v);
         const std::string i = inner(rng, v);
         return "SELECT R.X FROM R WHERE " + o + "R.Y IN (SELECT S.Z FROM S" +
                (i.empty() ? "" : " WHERE " + i) + ")" + with(rng, v);
       }},
      {"J", correlated("IN", "S.Z")},
      {"JX", correlated("NOT IN", "S.Z")},
      {"JA_MAX", correlated("<=", "MAX(S.Z)")},
      {"JA_COUNT", correlated(">=", "COUNT(S.Z)")},
      {"JALL", correlated("<= ALL", "S.Z")},
      {"SOME", correlated("< SOME", "S.Z")},
      {"CHAIN3",
       [&](Rng& rng, int v) {
         return "SELECT R.X FROM R WHERE " + outer(rng, v) +
                "R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U AND S.Z IN "
                "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.V))" +
                with(rng, v);
       }},
      // Uncorrelated ALL. The inner filter keeps |S| near 110 rows:
      // unfiltered, this one template would take most of the
      // workload's time.
      {"ALL",
       [&](Rng& rng, int v) {
         return "SELECT R.X FROM R WHERE " + outer(rng, v) +
                "R.Y < ALL (SELECT S.Z FROM S WHERE S.V < " +
                std::to_string(16 + rng.UniformInt(-1, 1)) + ")" +
                with(rng, v);
       }},
  };
  Rng rng(seed ^ 0x6f6c6170ull);
  FillPool(templates, 8, rng, w);
}

// oltp_small: a tens-of-rows emp/dept schema; each statement does about
// 100 us of work, so wire, admission, parse, bind and rendering
// dominate.
void MakeOltpSmall(uint64_t seed, Workload* w) {
  w->server_flags = {"--workers=1"};
  Rng data(seed ^ 0x6f6c7470ull);
  const int kDepts = 8;
  const int kEmps = 96;
  w->load = {"SET threads 1",
             "CREATE TABLE emp (name STRING, sal FUZZY, dept STRING);",
             "CREATE TABLE dept (dname STRING, budget FUZZY);"};
  for (int d = 0; d < kDepts; ++d) {
    w->load.push_back("INSERT INTO dept VALUES ('d" + std::to_string(d) +
                      "', ABOUT(" + std::to_string(80 + 15 * d) + ", 25));");
  }
  // Salaries spread evenly over 60..180 (the seed only jitters them), so
  // every seed's answers have the same sizes.
  for (int e = 0; e < kEmps; ++e) {
    w->load.push_back(
        "INSERT INTO emp VALUES ('e" + std::to_string(e) + "', ABOUT(" +
        std::to_string(Jitter(data, 60 + 5 * e / 4)) + ", " +
        std::to_string(5 + e % 11) + "), 'd" + std::to_string(e % kDepts) +
        "');");
  }
  w->probe_select = "SELECT name FROM emp WHERE name = 'e0';";
  // Variant v spreads the thresholds over the salary and budget range.
  const auto level = [](Rng& rng, int v, int lo, int hi) {
    return std::to_string(Jitter(rng, lo + (hi - lo) * v / 7));
  };
  const std::vector<Template> templates = {
      {"point",
       [&](Rng&, int v) {
         return "SELECT name, sal FROM emp WHERE name = 'e" +
                std::to_string(v * 12) + "';";
       }},
      {"range",
       [&](Rng& rng, int v) {
         return "SELECT name FROM emp WHERE sal > ABOUT(" +
                level(rng, v, 70, 170) + ", 10) AND dept = 'd" +
                std::to_string(v % kDepts) + "' WITH D >= 0.3;";
       }},
      {"in",
       [&](Rng& rng, int v) {
         return "SELECT name FROM emp WHERE dept IN (SELECT dname FROM dept "
                "WHERE budget > ABOUT(" +
                level(rng, v, 80, 180) + ", 20));";
       }},
      {"any",
       [&](Rng&, int v) {
         return "SELECT name FROM emp WHERE sal > ANY (SELECT budget FROM "
                "dept WHERE dname = 'd" +
                std::to_string(v % kDepts) + "') WITH D >= 0.3;";
       }},
      {"group_by",
       [&](Rng& rng, int v) {
         return "SELECT dept, COUNT(name) FROM emp WHERE sal > ABOUT(" +
                level(rng, v, 70, 170) + ", 10) GROUP BY dept;";
       }},
  };
  Rng rng(seed ^ 0x706f6f6cull);
  FillPool(templates, 8, rng, w);
}

// A type J row value: crisp or "about" around its group's center, with
// group centers 16 apart so only same-group values overlap.
std::string JoinValue(Rng& rng, int group) {
  const double center = 16.0 * group + rng.UniformDouble(-1.0, 1.0);
  if (rng.Bernoulli(0.5)) return Num(center);
  return "ABOUT(" + Num(center) + ", " + Num(rng.UniformDouble(0.5, 2.0)) +
         ")";
}

constexpr int kDurableRows = 2048;
constexpr int kDurableGroups = kDurableRows / 7;
// The count-bounded stream takes its length from --seconds at this
// rate, so the final relation sizes depend only on the arguments (about
// --seconds of traffic on one connection of a 4-vCPU x86 host).
constexpr double kDurableStatementsPerSecond = 700.0;

// mixed_durable: a WAL-backed catalog; a dashboard-like pool of
// nested reads repeats while every tenth statement inserts one uniquely
// keyed row into S.
void MakeMixedDurable(uint64_t seed, double seconds, double scale,
                      Workload* w) {
  w->server_flags = {"--workers=1", "--wal-fsync=batch", "--cache-mb=64"};
  w->durable = true;
  w->write_every = 10;
  Rng data(seed ^ 0x64757261ull);
  const int rows = std::max(64, static_cast<int>(kDurableRows * scale));
  const int groups = std::max(4, static_cast<int>(kDurableGroups * scale));
  w->load = {"SET threads 1",
             "CREATE TABLE R (X FUZZY, Y FUZZY, U FUZZY);",
             "CREATE TABLE S (Z FUZZY, V FUZZY, K STRING);"};
  // Rows go to groups round-robin, so every seed has the same group
  // sizes and a statement's cost does not depend on the seed; the seed
  // moves the values within each group.
  for (int i = 0; i < rows; ++i) {
    const int g = i % groups;
    w->load.push_back("INSERT INTO R VALUES (" + std::to_string(i) + ", " +
                      JoinValue(data, g) + ", " + std::to_string(g) + ");");
  }
  for (int i = 0; i < rows; ++i) {
    const int g = i % groups;
    const std::string key = std::string("s").append(std::to_string(i));
    w->load.push_back("INSERT INTO S VALUES (" + JoinValue(data, g) + ", " +
                      std::to_string(g) + ", '" + key + "');");
    w->loaded_keys.push_back(key);
  }
  w->probe_select = "SELECT R.X FROM R WHERE R.X < 1;";
  w->templates = {"dashboard"};
  Rng rng(seed ^ 0x64617368ull);
  const auto limit = [&](int base) {
    return std::to_string(Jitter(rng, base));
  };
  w->pool = {
      "SELECT R.X FROM R WHERE R.X < " + limit(192) +
          " AND R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U);",
      "SELECT R.X FROM R WHERE R.X < " + limit(768) +
          " AND R.Y <= (SELECT MAX(S.Z) FROM S WHERE S.V = R.U) WITH D >= "
          "0.5;",
      "SELECT R.X FROM R WHERE R.X < " + limit(384) +
          " AND R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = R.U);",
      "SELECT R.X FROM R WHERE R.X < " + limit(384) +
          " AND R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U) WITH D >= "
          "0.9;",
      "SELECT R.X FROM R WHERE R.X < " + limit(96) +
          " AND R.Y IN (SELECT S.Z FROM S);",
      "SELECT R.X FROM R WHERE R.X < " + limit(768) +
          " AND R.Y < SOME (SELECT S.Z FROM S WHERE S.V = R.U);",
  };
  w->pool_template.assign(w->pool.size(), 0);
  w->stream_statements = std::max<size_t>(
      20, static_cast<size_t>(std::llround(seconds * scale *
                                           kDurableStatementsPerSecond)));
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  double scale, Workload* workload) {
  workload->name = name;
  workload->seed = seed;
  if (name == "olap_nested") {
    MakeOlapNested(seed, workload);
  } else if (name == "oltp_small") {
    MakeOltpSmall(seed, workload);
  } else if (name == "mixed_durable") {
    MakeMixedDurable(seed, seconds, scale, workload);
  } else {
    return false;
  }
  return true;
}

RequestStream::RequestStream(const Workload& workload)
    : workload_(workload), rng_(workload.seed * 1000003ull + 1) {}

bool RequestStream::Next(Request* request) {
  if (workload_.stream_statements > 0 &&
      issued_ >= workload_.stream_statements) {
    return false;
  }
  const size_t i = issued_++;
  *request = Request();
  if (workload_.write_every > 0 && i % workload_.write_every == 0) {
    request->write = true;
    const int g = static_cast<int>(rng_.UniformInt(0, kDurableGroups - 1));
    request->key = std::string("w").append(std::to_string(i));
    request->line = "INSERT INTO S VALUES (" + JoinValue(rng_, g) + ", " +
                    std::to_string(g) + ", '" + request->key + "');";
    return true;
  }
  // Reads walk the pool in a fresh seeded order on every pass, so each
  // statement is sent about equally often in any run.
  if (next_ == order_.size()) {
    order_.resize(workload_.pool.size());
    for (size_t k = 0; k < order_.size(); ++k) order_[k] = static_cast<int>(k);
    for (size_t k = order_.size(); k > 1; --k) {
      std::swap(order_[k - 1],
                order_[static_cast<size_t>(
                    rng_.UniformInt(0, static_cast<int64_t>(k) - 1))]);
    }
    next_ = 0;
  }
  request->pool_index = order_[next_++];
  request->line = workload_.pool[static_cast<size_t>(request->pool_index)];
  return true;
}

}  // namespace servebench
