# Fail if std::function or <functional> appears in a simulation-thread
# module. Those modules hold every callable in sim::SmallFn<Sig>;
# std::function stays in driver and threading code (campaign, exp,
# core).
#   cmake -DSRC=path/to/src -P no_std_function.cmake
set(found "")
foreach(dir sim net os proto press loadgen faults)
    file(GLOB_RECURSE files "${SRC}/${dir}/*")
    foreach(f ${files})
        file(STRINGS "${f}" hits REGEX "std::function|<functional>")
        foreach(hit ${hits})
            string(APPEND found "\n  ${f}: ${hit}")
        endforeach()
    endforeach()
endforeach()
if(found)
    message(FATAL_ERROR
        "std::function on the simulation thread (use sim::SmallFn):${found}")
endif()
