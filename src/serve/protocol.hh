/**
 * @file
 * The serve daemon's NDJSON wire protocol (kServeProtocolSchema v1).
 *
 * Every line each side sends is one JSON object carrying the schema
 * header, so either end can tell a foreign or future peer apart from
 * a broken one before interpreting anything else. Shapes:
 *
 *   request   {schema, version, op, ...}            client → daemon
 *   response  {schema, version, ok, op, ...}        daemon → client
 *   error     {schema, version, ok:false, op,
 *              error: <machine code>, message}      daemon → client
 *   event     {schema, version, event, job_id, ...} daemon → client,
 *             streamed between a submit's ack and its final result
 *
 * Ops: hello, submit, status, cancel, query, shutdown. Error codes
 * are stable machine strings (admission control returns
 * "queue-full" / "io-fault-rejected" / "shutting-down", an over-long
 * request line "line-too-long", rather than prose, so clients can
 * branch on them).
 */

#ifndef RIGOR_SERVE_PROTOCOL_HH
#define RIGOR_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>

#include "support/json.hh"

namespace rigor {
namespace serve {

/**
 * Longest request line the daemon reads, newline excluded. A longer
 * line gets a "line-too-long" error and the connection is closed, so
 * one client cannot grow the daemon's memory without bound.
 */
constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/** A request envelope with the schema header and `op` set. */
Json makeRequest(const std::string &op);

/** A success-response envelope for `op`. */
Json makeResponse(const std::string &op);

/** An error response: ok=false plus a machine `error` code. */
Json makeError(const std::string &op, const std::string &code,
               const std::string &message);

/** An event line for `job_id` (kind: log, output, progress, done). */
Json makeEvent(const std::string &kind, int jobId);

/**
 * Validate an incoming line's schema header.
 * @throws FatalError on a foreign schema or version mismatch — the
 * caller turns this into a protocol-mismatch error (daemon) or the
 * serve-unavailable exit code (client).
 */
void checkProtocolHeader(const Json &j);

} // namespace serve
} // namespace rigor

#endif // RIGOR_SERVE_PROTOCOL_HH
