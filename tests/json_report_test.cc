// JSON writer and run-report serialization tests.
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "sim/report.h"
#include "sim/runner.h"

namespace moca {
namespace {

TEST(JsonWriter, SimpleObject) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").value("two");
  w.key("c").value(true);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":true})");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.begin_object();
  w.key("y").value(3.5);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2,{"y":3.5}]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("o").begin_object();
  w.end_object();
  w.key("a").begin_array();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"o":{},"a":[]})");
}

TEST(JsonWriter, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(std::uint64_t{1}), CheckError);  // value w/o key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW((void)w.str(), CheckError);  // unclosed scope
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), CheckError);  // key inside array
  }
}

TEST(Report, RunResultJsonContainsCoreAndModuleRecords) {
  sim::Experiment e;
  e.instructions = 120'000;
  const std::map<std::string, core::ClassifiedApp> db;
  const sim::RunResult r =
      sim::run_single("gcc", sim::SystemChoice::kHomogenDdr3, db, e);
  const std::string json = sim::to_json(r);

  EXPECT_NE(json.find("\"memory_system\":\"Homogen-DDR3\""),
            std::string::npos);
  EXPECT_NE(json.find("\"app\":\"gcc\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"DDR3\""), std::string::npos);
  EXPECT_NE(json.find("\"total_instructions\":120000"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Report, SchemaVersionLeadsEverySerialization) {
  sim::Experiment e;
  e.instructions = 60'000;
  const std::map<std::string, core::ClassifiedApp> db;
  const sim::RunResult r =
      sim::run_single("gcc", sim::SystemChoice::kHomogenDdr3, db, e);
  // First key of the run-result object, so consumers can dispatch on it
  // before reading anything else.
  EXPECT_EQ(sim::to_json(r).rfind("{\"schema_version\":4,", 0), 0u);

  sim::SweepOutcome outcome;
  outcome.ok = true;
  outcome.result = r;
  EXPECT_NE(
      sim::to_deterministic_json(outcome).find("\"schema_version\":4"),
      std::string::npos);
}

TEST(Report, MigrationBlockOnlyWhenDaemonRan) {
  sim::Experiment e;
  e.instructions = 100'000;
  const std::map<std::string, core::ClassifiedApp> db;
  const sim::RunResult plain =
      sim::run_single("gcc", sim::SystemChoice::kMoca, db, e);
  EXPECT_EQ(sim::to_json(plain).find("\"migration\""), std::string::npos);

  os::MigrationConfig config;
  config.epoch_cycles = 20'000;
  const sim::RunResult mig =
      sim::run_workload_with_migration({"mcf"}, e, config);
  EXPECT_NE(sim::to_json(mig).find("\"migration\""), std::string::npos);
}

}  // namespace
}  // namespace moca
