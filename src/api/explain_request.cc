#include "api/explain_request.h"

#include <limits>

#include "models/model_kind.h"
#include "util/json_writer.h"
#include "util/string_utils.h"

namespace certa::api {
namespace {

/// '-' and '_' spell the same key: CLI flags use dashes
/// ("--deadline-ms"), wire/JSON fields use underscores ("deadline_ms").
std::string NormalizeKey(std::string_view key) {
  std::string normalized(key);
  for (char& c : normalized) {
    if (c == '-') c = '_';
  }
  return normalized;
}

bool FailField(const std::string& key, const std::string& what,
               std::string* error) {
  if (error != nullptr) *error = key + " " + what;
  return false;
}

bool ParseIntField(const std::string& key, std::string_view value,
                   long long min_value, long long* out, std::string* error) {
  long long parsed = 0;
  if (!ParseInt64(value, &parsed)) {
    return FailField(key, "is not an integer: '" + std::string(value) + "'",
                     error);
  }
  if (parsed < min_value) {
    return FailField(key, "must be >= " + std::to_string(min_value) +
                              " (got " + std::to_string(parsed) + ")",
                     error);
  }
  *out = parsed;
  return true;
}

bool NarrowToInt(const std::string& key, long long value, int* out,
                 std::string* error) {
  if (value > std::numeric_limits<int>::max()) {
    return FailField(key, "is out of range (got " + std::to_string(value) +
                              ")",
                     error);
  }
  *out = static_cast<int>(value);
  return true;
}

/// Exact, case-sensitive match against the shared model-name list.
bool KnownModel(const std::string& model) {
  for (const models::ModelName& entry : models::kModelNames) {
    if (entry.name == model) return true;
  }
  return false;
}

/// "deeper | deepmatcher | ditto | svm", from the same list.
std::string ModelChoices() {
  std::string choices;
  for (const models::ModelName& entry : models::kModelNames) {
    if (!choices.empty()) choices += " | ";
    choices += entry.name;
  }
  return choices;
}

}  // namespace

bool ExplainRequest::Validate(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (schema_version > kSchemaVersion) {
    return fail("request speaks schema_version " +
                std::to_string(schema_version) +
                "; this build supports <= " +
                std::to_string(kSchemaVersion) +
                " (upgrade the server, or send an older schema)");
  }
  if (schema_version < 1) {
    return fail("schema_version must be >= 1 (got " +
                std::to_string(schema_version) + ")");
  }
  if (dataset.empty()) return fail("dataset must not be empty");
  if (!KnownModel(model)) {
    return fail("unknown model '" + model + "' (want " + ModelChoices() +
                ")");
  }
  if (pair_index < 0) return fail("pair must be >= 0");
  if (triangles < 2) return fail("triangles must be >= 2");
  if (threads < 1) return fail("threads must be >= 1");
  if (budget < 0) return fail("budget must be >= 0");
  if (deadline_ms < 0) return fail("deadline_ms must be >= 0");
  if (!(fault_rate >= 0.0 && fault_rate <= 1.0)) {
    return fail("fault_rate must be in [0, 1]");
  }
  return true;
}

std::string ExplainRequest::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(schema_version);
  json.Key("id");
  json.String(id);
  json.Key("dataset");
  json.String(dataset);
  json.Key("data_dir");
  json.String(data_dir);
  json.Key("model");
  json.String(model);
  json.Key("pair");
  json.Int(pair_index);
  json.Key("triangles");
  json.Int(triangles);
  json.Key("threads");
  json.Int(threads);
  json.Key("seed");
  json.Int(static_cast<long long>(seed));
  json.Key("cache");
  json.Bool(use_cache);
  json.Key("budget");
  json.Int(budget);
  json.Key("deadline_ms");
  json.Int(deadline_ms);
  json.Key("fault_rate");
  json.Number(fault_rate);
  json.EndObject();
  return json.str();
}

bool ApplyField(std::string_view key, std::string_view value,
                ExplainRequest* request, std::string* error) {
  const std::string k = NormalizeKey(key);
  long long parsed = 0;
  if (k == "schema_version") {
    if (!ParseIntField(k, value, 1, &parsed, error)) return false;
    // Future versions pass here so Validate can phrase the rejection;
    // what must never happen is silently misreading their fields.
    if (parsed > std::numeric_limits<int>::max()) {
      return FailField(k, "is out of range", error);
    }
    request->schema_version = static_cast<int>(parsed);
    return true;
  }
  if (k == "id") {
    request->id = std::string(value);
    return true;
  }
  if (k == "dataset") {
    request->dataset = std::string(value);
    return true;
  }
  if (k == "data_dir" || k == "data") {
    request->data_dir = std::string(value);
    return true;
  }
  if (k == "model") {
    request->model = ToLowerAscii(value);
    return true;
  }
  if (k == "pair" || k == "pair_index") {
    if (!ParseIntField("pair", value, 0, &parsed, error)) return false;
    return NarrowToInt("pair", parsed, &request->pair_index, error);
  }
  if (k == "triangles") {
    if (!ParseIntField(k, value, 2, &parsed, error)) return false;
    return NarrowToInt(k, parsed, &request->triangles, error);
  }
  if (k == "threads") {
    if (!ParseIntField(k, value, 1, &parsed, error)) return false;
    return NarrowToInt(k, parsed, &request->threads, error);
  }
  if (k == "seed") {
    if (!ParseIntField(k, value, 0, &parsed, error)) return false;
    request->seed = static_cast<uint64_t>(parsed);
    return true;
  }
  if (k == "cache") {
    request->use_cache = value != "0" && value != "false";
    return true;
  }
  if (k == "budget") {
    return ParseIntField(k, value, 0, &request->budget, error);
  }
  if (k == "deadline_ms") {
    return ParseIntField(k, value, 0, &request->deadline_ms, error);
  }
  if (k == "fault_rate") {
    double rate = 0.0;
    if (!ParseDouble(value, &rate) || rate < 0.0 || rate > 1.0) {
      return FailField(k, "must be in [0, 1]", error);
    }
    request->fault_rate = rate;
    return true;
  }
  return FailField(std::string(key), "is not a known request field", error);
}

std::string DeprecationNote(std::string_view key) {
  const std::string k = NormalizeKey(key);
  std::string note;
  if (k == "data") {
    note.append("'").append(key).append(
        "' is deprecated; use 'data_dir' (--data-dir)");
  } else if (k == "pair_index") {
    note.append("'").append(key).append("' is deprecated; use 'pair'");
  }
  return note;
}

bool ParseKeyValueLine(std::string_view line, ExplainRequest* request,
                       std::string* error) {
  ExplainRequest parsed = *request;
  for (const std::string& token : SplitWhitespace(line)) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "bad token '" + token + "' (want key=value)";
      }
      return false;
    }
    if (!ApplyField(token.substr(0, eq), token.substr(eq + 1), &parsed,
                    error)) {
      return false;
    }
  }
  *request = parsed;
  return true;
}

bool FromJson(const JsonValue& value, ExplainRequest* request,
              std::string* error,
              std::vector<std::string>* deprecation_notes) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!value.is_object()) return fail("request must be a JSON object");

  // Version first: a future-versioned request must get the version
  // error, not a confusing unknown-key one for a field we do not know.
  const JsonValue* version = value.Find("schema_version");
  long long declared_version = 1;
  if (version != nullptr) {
    if (!version->is_integer()) {
      return fail("schema_version must be an integer");
    }
    if (version->int_value() > kSchemaVersion) {
      return fail("request speaks schema_version " +
                  std::to_string(version->int_value()) +
                  "; this build supports <= " +
                  std::to_string(kSchemaVersion));
    }
    declared_version = version->int_value();
  }
  // The request's own declared version picks the key surface: v2 is
  // canonical-only, v1 keeps the legacy spellings bit-identically.
  const bool canonical_only = declared_version >= 2;

  ExplainRequest parsed;
  for (const auto& [key, member] : value.object_items()) {
    if (canonical_only) {
      const std::string normalized = NormalizeKey(key);
      if (normalized != key) {
        return fail("'" + key + "' is not accepted at schema_version " +
                    std::to_string(declared_version) +
                    "; canonical keys are snake_case (use '" + normalized +
                    "')");
      }
      if (key == "data" || key == "pair_index") {
        return fail("'" + key + "' was retired at schema_version 2; use '" +
                    std::string(key == "data" ? "data_dir" : "pair") + "'");
      }
    } else if (deprecation_notes != nullptr) {
      std::string note = DeprecationNote(key);
      if (note.empty() && key.find('-') != std::string::npos) {
        note = "'" + key + "' uses a dashed key; canonical wire keys are "
               "snake_case ('" + NormalizeKey(key) +
               "'), required from schema_version 2";
      }
      if (!note.empty()) deprecation_notes->push_back(note);
    }
    std::string text;
    switch (member.type()) {
      case JsonValue::Type::kString:
        text = member.string_value();
        break;
      case JsonValue::Type::kBool:
        text.push_back(member.bool_value() ? '1' : '0');
        break;
      case JsonValue::Type::kNumber:
        if (member.is_integer()) {
          text = std::to_string(member.int_value());
        } else {
          text = FormatDouble(member.number_value(), 9);
        }
        break;
      default:
        return fail("field '" + key + "' has unsupported JSON type");
    }
    if (!ApplyField(key, text, &parsed, error)) return false;
  }
  *request = parsed;
  return true;
}

bool FromJsonText(std::string_view text, ExplainRequest* request,
                  std::string* error,
                  std::vector<std::string>* deprecation_notes) {
  JsonValue value;
  if (!JsonValue::Parse(text, &value, error)) return false;
  return FromJson(value, request, error, deprecation_notes);
}

}  // namespace certa::api
