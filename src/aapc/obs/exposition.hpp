// The exporter for obs::RegistrySnapshot: a JSON snapshot and its
// parser. It is the format netd serves on its metrics frame and the
// tools write with --metrics-out; tests and CI smokes parse it back.
//
// The format is documented in docs/OBSERVABILITY.md. The exporter is
// locale-independent: numbers are rendered with the shortest
// round-tripping decimal form (common/strings.hpp,
// format_double_roundtrip), so an exported snapshot parses back to
// bit-identical values.
#pragma once

#include <string>
#include <string_view>

#include "aapc/obs/metrics.hpp"

namespace aapc::obs {

/// JSON snapshot: {"metrics":[{"name":...,"type":...,...}]}. Counters
/// stay integral; histograms carry bounds, cumulative-free per-bucket
/// counts, count, sum, and max. Parse back with snapshot_from_json.
std::string to_json(const RegistrySnapshot& snapshot);

/// Strict parser for to_json output (unknown fields are rejected, so
/// format drift fails loudly). Throws InvalidArgument on malformed
/// input.
RegistrySnapshot snapshot_from_json(std::string_view json);

}  // namespace aapc::obs
