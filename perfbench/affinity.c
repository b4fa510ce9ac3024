/* Pin the calling process to the CPU it is running on.  The served
   workload forks its server child after this, so client and server
   share one core: a closed-loop round trip then hands the core from
   one process to the other instead of waking an idle core, whose
   latency on a shared virtual machine varies with the host's load. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin_to_current_cpu(value unit)
{
  cpu_set_t set;
  int cpu;
  (void)unit;
  cpu = sched_getcpu();
  if (cpu < 0)
    return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  return Val_int(cpu);
}
