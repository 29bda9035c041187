(* Bounded MPMC queue with shedding. See workqueue.mli. *)

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Workqueue.create: capacity must be positive";
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
  }

let try_push t x =
  Mutex.protect t.lock (fun () ->
      if t.closed then `Closed
      else if Queue.length t.items >= t.capacity then `Shed
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        `Ok
      end)

let pop t =
  Mutex.protect t.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.lock;
          wait ()
        end
      in
      wait ())

let close t =
  Mutex.protect t.lock (fun () ->
      t.closed <- true;
      (* Wake every blocked consumer so it can observe the close. *)
      Condition.broadcast t.nonempty)
