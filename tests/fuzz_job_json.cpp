// Differential fuzz/property harness for the JSON reader and the API's
// job decoders (see fuzz_common.hpp for the replay / libFuzzer modes).
//
// Properties checked on arbitrary bytes:
//   P1  no input faults (the sanitizer legs run this harness too).
//   P2  the request decoders (decode_job_body, decode_batch_body) and
//       Json::parse + job_from_json (with the batch rules applied to the
//       tree) yield the same JobRecords, or the same status and error text.
//   P3  Json::parse and the reference parser (json_reference.hpp) agree
//       on accept/reject, on the error text and on every value. The
//       only allowed differences: nesting past JsonReader::kMaxDepth
//       fails, and an integer literal that fits int64_t or uint64_t is
//       kept exactly where the reference rounds it to a double.
//   P4  an accepted value round-trips through dump(): the dump reparses,
//       dumps identically, and equals the value unless it holds an
//       infinity (which dumps as null).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/api.hpp"
#include "tests/fuzz_common.hpp"
#include "tests/json_reference.hpp"
#include "util/json.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_job_json: property violated: %s\n", what);
    std::abort();
  }
}

bool same_double(double a, double b) { return a == b && std::signbit(a) == std::signbit(b); }

bool same_job(const mcb::JobRecord& a, const mcb::JobRecord& b) {
  return a.job_id == b.job_id && a.user_name == b.user_name && a.job_name == b.job_name &&
         a.environment == b.environment && a.nodes_requested == b.nodes_requested &&
         a.cores_requested == b.cores_requested && a.frequency == b.frequency &&
         a.submit_time == b.submit_time && a.start_time == b.start_time &&
         a.end_time == b.end_time && a.nodes_allocated == b.nodes_allocated &&
         a.exit_status == b.exit_status && same_double(a.perf2, b.perf2) &&
         same_double(a.perf3, b.perf3) && same_double(a.perf4, b.perf4) &&
         same_double(a.perf5, b.perf5) && same_double(a.perf6, b.perf6) &&
         same_double(a.avg_power_watts, b.avg_power_watts);
}

/// P3's value agreement: a number kept as an exact integer matches the
/// reference's double when the integer rounds to it.
bool same_value(const mcb::Json& json, const mcb::reference::Value& ref) {
  using Type = mcb::Json::Type;
  switch (json.type()) {
    case Type::Null: return std::holds_alternative<std::nullptr_t>(ref.v);
    case Type::Bool: {
      const bool* b = std::get_if<bool>(&ref.v);
      return b != nullptr && *b == json.as_bool();
    }
    case Type::Number: {
      const double* d = std::get_if<double>(&ref.v);
      if (d == nullptr) return false;
      const mcb::JsonNumber& n = *json.as_number();
      if (const auto* real = std::get_if<double>(&n)) return same_double(*real, *d);
      return mcb::json_number_as_double(n) == *d;
    }
    case Type::String: {
      const std::string* s = std::get_if<std::string>(&ref.v);
      return s != nullptr && *s == json.as_string();
    }
    case Type::Array: {
      const auto* a = std::get_if<mcb::reference::Array>(&ref.v);
      if (a == nullptr || a->size() != json.size()) return false;
      for (std::size_t i = 0; i < a->size(); ++i) {
        if (!same_value(json.as_array()[i], (*a)[i])) return false;
      }
      return true;
    }
    case Type::Object: {
      const auto* o = std::get_if<mcb::reference::Object>(&ref.v);
      if (o == nullptr || o->size() != json.size()) return false;
      auto it = o->begin();
      for (const auto& [key, value] : json.as_object()) {
        if (key != it->first || !same_value(value, it->second)) return false;
        ++it;
      }
      return true;
    }
  }
  return false;
}

bool all_finite(const mcb::Json& json) {
  if (json.is_number()) return std::isfinite(json.as_double());
  for (const mcb::Json& element : json.as_array()) {
    if (!all_finite(element)) return false;
  }
  for (const auto& [key, value] : json.as_object()) {
    if (!all_finite(value)) return false;
  }
  return true;
}

/// Nesting the reference parser may recurse into without exhausting the
/// stack (an over-count: brackets inside strings count too).
bool shallow_enough_for_reference(std::string_view text) {
  std::size_t depth = 0;
  for (const char c : text) {
    if (c == '[' || c == '{') {
      if (++depth > 4 * mcb::JsonReader::kMaxDepth) return false;
    } else if ((c == ']' || c == '}') && depth > 0) {
      --depth;
    }
  }
  return true;
}

/// The oracle for decode_batch_body: Json::parse, then the shape, size
/// and per-job checks on the tree.
bool dom_batch(std::string_view text, std::vector<mcb::JobRecord>& jobs, int& status,
               std::string& error) {
  jobs.clear();
  const auto json = mcb::Json::parse(text, &error);
  if (!json.has_value()) {
    status = 400;
    error = "invalid JSON: " + error;
    return false;
  }
  if (!json->is_object() || !json->contains("jobs") || !(*json)["jobs"].is_array()) {
    status = 400;
    error = "body must be {\"jobs\": [...]}";
    return false;
  }
  const mcb::JsonArray& list = (*json)["jobs"].as_array();
  if (list.empty()) {
    status = 400;
    error = "jobs must be non-empty";
    return false;
  }
  if (list.size() > mcb::kMaxClassifyBatch) {
    status = 413;
    error = "batch too large (max " + std::to_string(mcb::kMaxClassifyBatch) + " jobs)";
    return false;
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    auto job = mcb::job_from_json(list[i], &error);
    if (!job.has_value()) {
      status = 400;
      error = "jobs[" + std::to_string(i) + "]: " + error;
      return false;
    }
    jobs.push_back(std::move(*job));
  }
  status = 200;
  return true;
}

}  // namespace

int mcb_fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view text =
      size > 0 ? std::string_view(reinterpret_cast<const char*>(data), size) : std::string_view{};

  // P3 / P4 on the value tree.
  std::string error;
  const std::optional<mcb::Json> json = mcb::Json::parse(text, &error);
  check(json.has_value() == error.empty(), "P3 a rejection carries an error");
  const bool too_deep = !json.has_value() && error.starts_with("nesting too deep at offset ");
  if (!too_deep && shallow_enough_for_reference(text)) {
    mcb::reference::Value ref;
    std::string ref_error;
    const bool ref_ok = mcb::reference::parse(text, ref, ref_error);
    check(ref_ok == json.has_value(), "P3 accept/reject agrees with the reference");
    check(ref_ok || ref_error == error, "P3 error text agrees with the reference");
    check(!ref_ok || same_value(*json, ref), "P3 values agree with the reference");
  }
  if (json.has_value()) {
    const std::string dumped = json->dump();
    const std::optional<mcb::Json> again = mcb::Json::parse(dumped);
    check(again.has_value(), "P4 a dump reparses");
    check(again->dump() == dumped, "P4 a reparsed dump dumps identically");
    check(!all_finite(*json) || *again == *json, "P4 a finite value round-trips");
  }

  // P2, one job per body (/predict, /characterize, /encode).
  std::string pass_error;
  const std::optional<mcb::JobRecord> pass = mcb::decode_job_body(text, &pass_error);
  std::string dom_error = error;
  std::optional<mcb::JobRecord> dom;
  if (json.has_value()) {
    dom = mcb::job_from_json(*json, &dom_error);
  } else {
    dom_error = "invalid JSON: " + error;
  }
  check(pass.has_value() == dom.has_value(), "P2 single job: same accept/reject");
  check(pass.has_value() ? same_job(*pass, *dom) : pass_error == dom_error,
        "P2 single job: same record or same error");

  // P2, a /classify_batch body.
  std::vector<mcb::JobRecord> pass_jobs;
  std::vector<mcb::JobRecord> dom_jobs;
  int pass_status = 0;
  int dom_status = 0;
  const bool pass_ok = mcb::decode_batch_body(text, pass_jobs, pass_status, &pass_error);
  const bool dom_ok = dom_batch(text, dom_jobs, dom_status, dom_error);
  check(pass_ok == dom_ok && pass_status == dom_status, "P2 batch: same status");
  check(pass_ok || pass_error == dom_error, "P2 batch: same error text");
  check(pass_jobs.size() == (pass_ok ? dom_jobs.size() : 0), "P2 batch: same job count");
  for (std::size_t i = 0; pass_ok && i < pass_jobs.size(); ++i) {
    check(same_job(pass_jobs[i], dom_jobs[i]), "P2 batch: same records");
  }
  return 0;
}
