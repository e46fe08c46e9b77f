# Distributed-serving smoke test (driven by ctest, see CMakeLists.txt):
#   1. write the same community-structured edge list the serve smoke uses,
#   2. gosh_embed trains it and persists the GSHS store SHARDED 3 ways
#      (--rows-per-shard), the layout a dist-router scatters over,
#   3. three gosh_serve shard children start in the background on
#      ephemeral ports (--shard s/3, chaos-enabled with a deterministic
#      --chaos-delay-ms so the fault-injection plumbing is live on every
#      request), plus one dist-router parent pointed at them with
#      --backends, a tight scatter deadline and fast breaker knobs,
#   4. bench_serve_throughput --connect drives the healthy phase through
#      the parent (closed-loop POST /v1/query, /metrics scrape),
#   5. the crash: shard child 1 dies on SIGKILL; bench --expect-degraded
#      polls the parent until an answer carries "degraded": true AND the
#      parent's /metrics count nonzero
#      gosh_remote_degraded_responses_total and
#      gosh_remote_breaker_open_total — partial merges inside the
#      deadline, breaker open, nothing 5xx,
#   6. the recovery: the child restarts on its ORIGINAL port (the
#      ReplicaSet probe loop re-admits it through the half-open breaker);
#      bench --expect-recovered polls until answers come back
#      "degraded": false, then a final healthy drive + --shutdown proves
#      full merges and a clean exit,
#   7. the script polls the parent PID until it is gone and reaps the
#      children.
#
# Expects -DGOSH_EMBED=..., -DGOSH_SERVE=..., -DSERVE_BENCH=...,
# -DWORK_DIR=...
cmake_policy(SET CMP0012 NEW)  # let while(TRUE) mean the boolean

foreach(var GOSH_EMBED GOSH_SERVE SERVE_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_embed_serve_dist.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
set(edge_file ${WORK_DIR}/dist_edges.txt)
set(store_file ${WORK_DIR}/dist.store)
set(parent_port_file ${WORK_DIR}/parent.port)
set(parent_pid_file ${WORK_DIR}/parent.pid)
set(parent_log_file ${WORK_DIR}/parent.log)
file(REMOVE ${parent_port_file} ${parent_pid_file} ${parent_log_file})

# Four 16-cliques chained by bridge edges — 64 vertices, the serve
# smoke's graph, here split 22/22/20 across three shard files.
set(edges "# dist smoke graph: 4 cliques of 16, bridged\n")
foreach(c RANGE 3)
  math(EXPR base "${c} * 16")
  foreach(i RANGE 15)
    math(EXPR u "${base} + ${i}")
    math(EXPR next "${i} + 1")
    foreach(j RANGE ${next} 15)
      math(EXPR v "${base} + ${j}")
      string(APPEND edges "${u} ${v}\n")
    endforeach()
  endforeach()
  if(c LESS 3)
    math(EXPR bridge_a "${base} + 15")
    math(EXPR bridge_b "${base} + 16")
    string(APPEND edges "${bridge_a} ${bridge_b}\n")
  endif()
endforeach()
file(WRITE ${edge_file} "${edges}")

function(run_step label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${label} failed (exit ${rv}):\n${out}\n${err}")
  endif()
  message(STATUS "${label}:\n${out}")
endfunction()

# Every background process leaves a log; on any failure, dump them all —
# a dead child or a parent that never opened its breaker debugs from
# here, not from a bare exit code.
function(dump_logs_and_die reason)
  set(report "${reason}")
  foreach(log ${parent_log_file} ${WORK_DIR}/child0.log ${WORK_DIR}/child1.log
          ${WORK_DIR}/child2.log)
    if(EXISTS ${log})
      file(READ ${log} text)
      string(APPEND report "\n---- ${log}:\n${text}")
    endif()
  endforeach()
  execute_process(COMMAND sh -c "kill -9 ${all_pids} 2>/dev/null")
  message(FATAL_ERROR "${report}")
endfunction()

# Launches one gosh_serve in the background (sh detaches it, the PID
# lands in ${name}.pid) and waits for its --port-file; the bound port
# comes back in ${name}_port. Extra server flags ride in ARGN.
set(all_pids "")
function(launch_server name)
  set(port_file ${WORK_DIR}/${name}.port)
  set(pid_file ${WORK_DIR}/${name}.pid)
  set(log_file ${WORK_DIR}/${name}.log)
  file(REMOVE ${port_file})
  string(JOIN " " extra_flags ${ARGN})
  execute_process(
    COMMAND sh -c "'${GOSH_SERVE}' --store '${store_file}' --k 5 \
--threads 2 --port-file '${port_file}' ${extra_flags} \
> '${log_file}' 2>&1 & echo $! > '${pid_file}'"
    RESULT_VARIABLE launch_rv)
  if(NOT launch_rv EQUAL 0)
    dump_logs_and_die("could not launch ${name} (exit ${launch_rv})")
  endif()
  file(READ ${pid_file} pid)
  string(STRIP "${pid}" pid)
  set(all_pids "${all_pids} ${pid}" PARENT_SCOPE)
  set(waited 0)
  while(NOT EXISTS ${port_file})
    if(waited GREATER 100)  # 20 s
      set(all_pids "${all_pids} ${pid}")
      dump_logs_and_die("${name} never announced its port")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
    math(EXPR waited "${waited} + 1")
  endwhile()
  file(READ ${port_file} port)
  string(STRIP "${port}" port)
  set(${name}_port ${port} PARENT_SCOPE)
  set(${name}_pid ${pid} PARENT_SCOPE)
  message(STATUS "${name} is listening on 127.0.0.1:${port} (pid ${pid})")
endfunction()

run_step("gosh_embed -> sharded store"
         ${GOSH_EMBED} --input ${edge_file} --output ${store_file}
         --format store --rows-per-shard 22 --preset fast --dim 16
         --epochs 60 --seed 3)

# Three shard children on ephemeral ports. --chaos-delay-ms keeps the
# fault injector live on every request (deterministic, harmless) so this
# smoke also proves the chaos plumbing doesn't perturb correctness.
foreach(s RANGE 2)
  launch_server(child${s} --shard ${s}/3 --strategy exact --port 0
                --chaos-delay-ms 1 --chaos-seed 7)
endforeach()

# The dist-router parent scatters to them. Fast breaker/probe knobs so
# the kill and the recovery both converge within the bench's poll
# windows; --retries 1 keeps transient child hiccups out of the healthy
# phase.
launch_server(parent --strategy dist-router
              --backends 127.0.0.1:${child0_port},127.0.0.1:${child1_port},127.0.0.1:${child2_port}
              --port 0 --allow-remote-shutdown --remote-deadline-ms 1000
              --retries 1 --breaker-failures 2 --breaker-cooldown-ms 500
              --probe-interval-ms 100)

# Healthy phase: closed-loop queries through the scatter-merge path plus
# the /metrics scrape. Any non-200 fails the bench.
run_step("bench --connect (healthy 3-shard scatter)"
         ${SERVE_BENCH} --connect 127.0.0.1:${parent_port})

# The crash: shard 1 dies mid-service, no goodbye. The parent must keep
# answering 200 with the partial merge annotated and the breaker must
# open — bench --expect-degraded polls for exactly that.
execute_process(COMMAND sh -c "kill -9 ${child1_pid} 2>/dev/null")
run_step("bench --expect-degraded (child 1 killed)"
         ${SERVE_BENCH} --connect 127.0.0.1:${parent_port}
         --expect-degraded)

# The recovery: the child comes back on its ORIGINAL port (the backend
# list is fixed; SO_REUSEADDR makes the rebind immediate), the probe
# loop's half-open admission closes the breaker, and full merges return.
launch_server(child1 --shard 1/3 --strategy exact --port ${child1_port}
              --chaos-delay-ms 1 --chaos-seed 7)
run_step("bench --expect-recovered (child 1 restarted)"
         ${SERVE_BENCH} --connect 127.0.0.1:${parent_port}
         --expect-recovered)

# Full merges are load-worthy again; then the remote shutdown.
run_step("bench --connect (recovered) + shutdown"
         ${SERVE_BENCH} --connect 127.0.0.1:${parent_port} --shutdown)

# Clean shutdown is part of the contract: the parent must be GONE.
set(waited 0)
while(TRUE)
  execute_process(COMMAND sh -c "kill -0 ${parent_pid} 2>/dev/null"
                  RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    break()
  endif()
  if(waited GREATER 100)  # 20 s
    dump_logs_and_die("parent is still running after /admin/shutdown")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
  math(EXPR waited "${waited} + 1")
endwhile()

file(READ ${parent_log_file} log)
message(STATUS "dist-router parent exited cleanly; log:\n${log}")

# Reap the children (their job is done; no graceful-exit contract here).
execute_process(COMMAND sh -c "kill -9 ${all_pids} 2>/dev/null")
message(STATUS "distributed smoke passed: scatter, crash, degrade, recover")
