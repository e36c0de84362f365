(* A naive fresh [Writer.create] per encode makes the allocator the
   hot path at high message rates. Deterministic (no RNG, a pooled
   writer is always handed out cleared) and domain-safe: the free list
   is domain-local state ([Domain.DLS]), so parallel sweep shards never
   share a writer or contend on the pool. Nesting within a domain is
   safe because the pool is a stack. *)

type pool = { mutable free : Codec.Writer.t list; mutable count : int }

let key = Domain.DLS.new_key (fun () -> { free = []; count = 0 })
let max_pooled = 8

(* A writer whose storage grew past this releases it on return, so
   one outsized frame cannot pin memory: the pool holds at most
   [max_pooled * retain_bytes] = 8 MiB per domain. *)
let retain_bytes = 1 lsl 20

let acquire () =
  let p = Domain.DLS.get key in
  match p.free with
  | [] -> Codec.Writer.create ~capacity:512 ()
  | w :: rest ->
      p.free <- rest;
      p.count <- p.count - 1;
      w

let release w =
  let p = Domain.DLS.get key in
  if p.count < max_pooled then begin
    if Bytes.length (Codec.Writer.unsafe_bytes w) > retain_bytes then
      Codec.Writer.reset w
    else Codec.Writer.clear w;
    p.free <- w :: p.free;
    p.count <- p.count + 1
  end

let with_writer f =
  let w = acquire () in
  Fun.protect ~finally:(fun () -> release w) (fun () -> f w)
