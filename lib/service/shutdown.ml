(* Graceful-shutdown signals. See shutdown.mli. *)

type reason = Interrupt | Terminate

let reason_name = function Interrupt -> "interrupt" | Terminate -> "terminate"
let exit_code = function Interrupt -> 130 | Terminate -> 143

(* 0 = none; otherwise the signal's exit code. Atomic because worker
   domains poll it while the main domain's handler writes it. *)
let state = Atomic.make 0

let of_code = function 130 -> Some Interrupt | 143 -> Some Terminate | _ -> None

let handle reason _signo =
  let code = exit_code reason in
  if not (Atomic.compare_and_set state 0 code) then
    (* Second signal: the user is insisting. Skip the drain. *)
    Stdlib.exit code

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Sys.set_signal Sys.sigint (Sys.Signal_handle (handle Interrupt));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (handle Terminate))
  end

let requested () = of_code (Atomic.get state)
