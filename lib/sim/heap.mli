(** Array-backed binary min-heap, the simulator's event queue.

    The comparison function is fixed at creation. [pop]/[peek] return
    the minimum element. Amortised O(log n) insert and pop. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
