/**
 * @file
 * Forwarding header: the JSON codec lives in common/json.hh. This
 * alias exists only because the frozen perfbench/ sources still
 * include serve/json.hh and name r2u::serve::json; in-tree code
 * includes common/json.hh. Delete this file with the next change to
 * the benchmark.
 */

#ifndef R2U_SERVE_JSON_HH
#define R2U_SERVE_JSON_HH

#include "common/json.hh"

namespace r2u::serve
{
namespace json = ::r2u::json;
} // namespace r2u::serve

#endif // R2U_SERVE_JSON_HH
