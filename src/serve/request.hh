/**
 * @file
 * Wire types of the advice engine: one request/response pair per
 * tenant operation. A request is a 48-byte POD that travels by value
 * through the MPSC ring; the response is written in place through a
 * caller-owned pointer, published by a release increment of the
 * caller's completion counter. Clients keep response storage and the
 * counter alive until the increment lands (acquire-load it to read
 * the response safely).
 */

#ifndef GLIDER_SERVE_REQUEST_HH
#define GLIDER_SERVE_REQUEST_HH

#include <atomic>
#include <cstdint>

namespace glider {
namespace serve {

/** What a request asks the tenant's predictor to do. */
enum class RequestKind : std::uint8_t {
    Advise, //!< predict for pc, then observe pc into the PCHR
    Train   //!< train on (pc, opt_hit), then observe pc
};

/** Coarse caching advice (mirrors the three insertion priorities). */
enum class AdviceLevel { FriendlyHigh, FriendlyLow, Averse };

/** Why a response carries (or does not carry) a usable score. */
enum class ResponseStatus : std::uint8_t {
    Ok,         //!< served against live predictor state
    Quarantined //!< tenant disabled after exhausting fault retries
};

/** One completed operation's result, written by the owning shard. */
struct AdviceResponse
{
    int score = 0; //!< raw ISVM decision sum (Advise only)
    AdviceLevel level = AdviceLevel::FriendlyLow;
    ResponseStatus status = ResponseStatus::Ok;
    std::uint64_t served_ns = 0; //!< steady-clock stamp at completion
};

/** One operation travelling through the ingest ring. */
struct AdviceRequest
{
    std::uint64_t tenant = 0; //!< shard + predictor-state key
    std::uint64_t pc = 0;     //!< load PC the operation concerns
    RequestKind kind = RequestKind::Advise;
    bool opt_hit = false;     //!< Train label (ignored for Advise)
    AdviceResponse *response = nullptr;       //!< caller-owned slot
    // glider-mo: publish — the server's release fetch_add makes
    // the response slot visible to the client's acquire wait loop.
    std::atomic<std::uint64_t> *done = nullptr; //!< completion counter
};

} // namespace serve
} // namespace glider

#endif // GLIDER_SERVE_REQUEST_HH
