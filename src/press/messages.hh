/**
 * @file
 * PRESS protocol message bodies: intra-cluster messages (request
 * forwarding, file-data transfer, caching-information dissemination,
 * membership), datagram kinds (heartbeats, rejoin protocol), and the
 * client-server request/response payloads.
 *
 * Load information is piggy-backed onto every intra-cluster message
 * via the common @c senderLoad field, as in the paper.
 */

#ifndef PERFORMA_PRESS_MESSAGES_HH
#define PERFORMA_PRESS_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace performa::press {

/** Intra-cluster message types (AppMessage::type). */
enum MsgType : std::uint32_t
{
    MsgFwdRequest = 1, ///< forward a client request to a service node
    MsgFileData,       ///< file content back to the initial node
    MsgCacheUpdate,    ///< one cache insert/evict broadcast
    MsgCacheInfo,      ///< bulk caching info (rejoin), chunked
    MsgMemberDown,     ///< heartbeat detector announces a failure
};

/** Datagram kinds (heartbeats + TCP rejoin protocol). */
enum DgramKind : std::uint32_t
{
    DgHeartbeat = 100,
    DgJoinReq,  ///< rejoining node broadcasts its address
    DgJoinResp, ///< lowest-ID member replies with the configuration
};

/** Client-server frame kinds on the client network. */
enum ClientFrameKind : std::uint32_t
{
    ClientRequest = 1,
    ClientResponse,
};

/** Common header: every intra-cluster message carries the sender's
 *  current load (number of open connections). */
struct MsgBase
{
    std::uint32_t senderLoad = 0;
};

struct FwdRequestBody : MsgBase
{
    sim::RequestId req = 0;
    sim::FileId file = 0;
    sim::NodeId initial = sim::invalidNode;
};

struct FileDataBody : MsgBase
{
    /** The initial node answers the client from its pending-forward
     *  record of this request. */
    sim::RequestId req = 0;
    /** When the service node began fetching the file (latency stamp;
     *  echoed to the client for the queue/service split). */
    sim::Tick serviceStartAt = 0;
};

struct CacheUpdateBody : MsgBase
{
    sim::NodeId node = sim::invalidNode;
    sim::FileId file = 0;
    bool added = true;
};

struct CacheInfoBody : MsgBase
{
    sim::NodeId node = sim::invalidNode;
    std::vector<sim::FileId> files;
};

struct MemberDownBody : MsgBase
{
    sim::NodeId failed = sim::invalidNode;
};

/** DgJoinResp payload. */
struct JoinRespBody
{
    std::vector<sim::NodeId> members;
};

/**
 * Client network payloads. The latency stamps are measurement-only:
 * servers copy and echo them (like a request-id header) so the client
 * can split end-to-end latency into connect / queue / service stages;
 * nothing in the serving path reads them for decisions.
 */
struct ClientRequestBody
{
    sim::RequestId req = 0;
    sim::FileId file = 0;
    std::uint32_t replyPort = 0;
    sim::Tick sentAt = 0;     ///< stamped by the client
    sim::Tick acceptedAt = 0; ///< stamped by the accepting server
};

struct ClientResponseBody
{
    sim::RequestId req = 0;
    sim::Tick sentAt = 0;
    sim::Tick acceptedAt = 0;
    sim::Tick serviceStartAt = 0; ///< file fetch began (any node)
};

} // namespace performa::press

#endif // PERFORMA_PRESS_MESSAGES_HH
