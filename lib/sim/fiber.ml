type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn engine f =
  let fiber () =
    Effect.Deep.match_with f ()
      { retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    register (fun v -> Effect.Deep.continue k v))
            | _ -> None) }
  in
  ignore (Engine.schedule engine ~delay:0 fiber)

let sleep engine d =
  suspend (fun resume ->
      ignore (Engine.schedule engine ~delay:d (fun () -> resume ())))

let never () = suspend (fun _resume -> ())
