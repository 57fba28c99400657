# Fail if a std::map or std::unordered_map keyed by sim::NodeId is
# declared under src/proto. Peer tables there are vectors indexed by
# node id (proto::ChannelTable); a node-keyed map would bring back a
# lookup and an allocation per peer.
#   cmake -DSRC=path/to/src -P no_node_keyed_maps.cmake
set(found "")
file(GLOB_RECURSE files "${SRC}/proto/*")
foreach(f ${files})
    file(READ "${f}" text)
    string(REGEX MATCHALL
        "std::(unordered_)?map[ \t\r\n]*<[ \t\r\n]*((performa)?::)?(sim::)?NodeId[ \t\r\n]*,"
        hits "${text}")
    foreach(hit ${hits})
        string(APPEND found "\n  ${f}: ${hit}")
    endforeach()
endforeach()
if(found)
    message(FATAL_ERROR
        "node-keyed map in src/proto (index a vector by node id):${found}")
endif()
