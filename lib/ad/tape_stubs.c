/* Process-wide malloc policy for tape storage; see [Tape.alloc_i32]. */

#include <caml/mlvalues.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

/* Serve every malloc of at least [bytes] bytes from its own mapping.
   A no-op where the C library has no such knob. */
value scvad_fix_mmap_threshold(value bytes)
{
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, Int_val(bytes));
#endif
  return Val_unit;
}
