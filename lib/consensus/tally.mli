(** Distinct-sender vote counting, the rule every quorum in the
    stack rests on: BBC's EST, AUX and DECIDE, PBFT's PREPARE, COMMIT
    and VIEW-CHANGE, Bracha's ECHO and READY, HotStuff's votes and
    NEW-VIEWs. A tally holds, for each key (a round, a digest, a
    view), the first value each sender gave under that key. A sender
    that repeats itself under a key, with the same value or another,
    is not counted again, so one Byzantine node can never stand for
    two in an f+1, 2f+1 or n−f threshold.

    OBBC does not use a tally. Its votes, evidences and piggybacked
    headers are each one flat set per instance on FLO's fast path: a
    key there would cost a lookup per vote and save nothing. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create size]: an empty tally sized for about [size] keys. *)

val add : ('k, 'v) t -> 'k -> src:int -> 'v -> bool
(** [add t key ~src v] records [v] as [src]'s value under [key] and
    returns [true], or returns [false] and records nothing when [src]
    already has a value under [key]. *)

val count : ('k, 'v) t -> 'k -> int
(** Distinct senders under [key]; 0 for a key never added to. *)

val fold : ('k, 'v) t -> 'k -> (int -> 'v -> 'acc -> 'acc) -> 'acc -> 'acc
(** [fold t key f acc] folds [f src v] over the senders under [key]
    and the value each gave first. *)
