# Fails when the runtime depends on a layer above it: a file under
# src/runtime/ includes a lang/, analysis/, interp/, compile/, serving/ or
# apps/ header, or sp_runtime links a library other than sp_support and
# Threads. The runtime_layering ctest runs it as
#   cmake -DRUNTIME_DIR=<src/runtime> -DRUNTIME_LINKS=<lib,lib,...>
#         -P check_runtime_layering.cmake
set(Errors "")
file(GLOB_RECURSE Sources "${RUNTIME_DIR}/*.h" "${RUNTIME_DIR}/*.cpp")
if(NOT Sources)
  message(FATAL_ERROR "no runtime sources under '${RUNTIME_DIR}'")
endif()
foreach(F IN LISTS Sources)
  file(STRINGS "${F}" Hits REGEX
       "^[ \t]*#[ \t]*include[ \t]*[<\"](lang|analysis|interp|compile|serving|apps)/")
  foreach(H IN LISTS Hits)
    string(APPEND Errors "\n  ${F}: ${H}")
  endforeach()
endforeach()
string(REPLACE "," ";" Links "${RUNTIME_LINKS}")
foreach(L IN LISTS Links)
  if(NOT L MATCHES "^(sp_support|Threads::Threads)$")
    string(APPEND Errors "\n  sp_runtime links ${L}")
  endif()
endforeach()
if(Errors)
  message(FATAL_ERROR "the runtime may depend only on sp_support and "
                      "Threads:${Errors}")
endif()
