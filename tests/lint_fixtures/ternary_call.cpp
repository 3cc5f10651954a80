// A ternary whose true branch is a call, in a lambda passed at namespace
// scope (a gtest name generator). Read as a constructor's initializer list,
// `std::string("poll") :` made write_trace's body a phantom `std::string`
// definition, so regen() was reported as carrying nondeterministic data
// through fixture_path()'s std::string call toward json::dump. r9-clean.
#include <cstdlib>
#include <string>

namespace fixture {

INSTANTIATE_TEST_SUITE_P(Backends, LoopTest, Values(0, 1), [](const ParamInfo& info) {
  return info.param == 1 ? std::string("poll") : std::string("epoll");
});

void write_trace(const Trace& trace) { json::dump(trace); }

std::string fixture_path(const std::string& name) { return std::string("fixtures/") + name; }

void regen(const Trace& trace) {
  if (std::getenv("HARP_REGEN") != nullptr) save(fixture_path("golden.jsonl"), trace);
}

}  // namespace fixture
