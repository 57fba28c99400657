# Run the campaign CLI with --list and one bad option value; pass only
# if it exits 2 and names the option on stderr, i.e. it refused the
# value instead of measuring something else. With ENVVAR, the bad
# value goes into that environment variable instead of an option.
#   cmake -DCLI=path/to/performa_campaign -DOPT=--nodes -DVALUE=0 -P cli_rejects.cmake
#   cmake -DCLI=path/to/performa_campaign -DENVVAR=PERFORMA_JOBS -DVALUE=257 -P cli_rejects.cmake
if(DEFINED ENVVAR)
    set(ENV{${ENVVAR}} "${VALUE}")
    set(OPT "${ENVVAR}")
    execute_process(
        COMMAND "${CLI}" --list
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
else()
    execute_process(
        COMMAND "${CLI}" --list "${OPT}" "${VALUE}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 2 OR NOT err MATCHES "bad ${OPT}")
    message(FATAL_ERROR
        "${OPT} '${VALUE}': want exit 2 and 'bad ${OPT}', got ${rc}: ${err}")
endif()
