(* Fault-tolerant job supervision over a fixed set of worker domains
   that claim jobs from a shared cursor: every job gets its own outcome
   — success, failure after N attempts, timeout (no heartbeat progress
   within the deadline), or quarantine before it runs. Failed attempts
   are retried with deterministic exponential backoff; a watchdog domain
   cancels jobs whose heartbeat stalls.

   An attempt ends one of three ways: it returns, the watchdog cancels
   it, or it raises. Every exception a job raises is that attempt's
   failure, so a worker runs until the batch is done: the workers are
   spawned once and joined once.

   Domains cannot be killed from outside in OCaml, so cancellation is
   cooperative: the job function receives a [heartbeat] thunk, cheap
   enough to call once per simulated round ([Atomic.incr] plus a flag
   check), which both proves liveness to the watchdog and raises
   [Cancelled] once the watchdog has given up on the attempt.

   With [default_policy] (no retries, no timeout, [keep_going = false])
   a batch behaves like [List.map] fanned out over the domains: results
   are in input order, every job runs exactly once, the first exception
   aborts the batch (unstarted jobs are dropped) and is re-raised as
   itself with its backtrace, and [jobs = 1] runs inline on the calling
   domain. *)

type error =
  | Failed of { attempts : int; error : exn }
  | Timed_out of { attempts : int; timeout : float }
  | Quarantined of { failures : int }
  | Skipped  (** never started: batch drained or aborted first *)

type 'a outcome = ('a, error) result

type policy = {
  retries : int;  (** extra attempts after the first failure/timeout *)
  job_timeout : float;  (** seconds without heartbeat progress; 0 = off *)
  backoff : float;  (** delay before retry 1; doubles per failed attempt *)
  backoff_cap : float;  (** upper bound on any single backoff delay *)
  keep_going : bool;  (** false = the first error aborts and is re-raised *)
}

let default_policy =
  { retries = 0; job_timeout = 0.0; backoff = 0.05; backoff_cap = 2.0;
    keep_going = false }

exception Cancelled

(* Raised where a requested drain stops work that has no per-job outcome
   to report it in: a plain batch ([Scenario.run_batch]) that skipped
   jobs, or a checkpointing run; the CLI maps it to exit code 4. *)
exception Drained

exception
  Job_gave_up of { label : string; attempts : int; reason : string }

type event =
  | Attempt_failed of
      { label : string; attempt : int; error : exn; retry_in : float }
  | Attempt_timed_out of
      { label : string; attempt : int; timeout : float; retry_in : float }
  | Job_failed of { label : string; attempts : int; error : exn }
  | Job_timed_out of { label : string; attempts : int; timeout : float }
  | Job_quarantined of { label : string; failures : int }
  | Jobs_skipped of { count : int }

let pp_event ppf = function
  | Attempt_failed { label; attempt; error; retry_in } ->
    Format.fprintf ppf "%s: attempt %d failed (%s), retry in %.3fs" label
      attempt (Printexc.to_string error) retry_in
  | Attempt_timed_out { label; attempt; timeout; retry_in } ->
    Format.fprintf ppf
      "%s: attempt %d timed out (no progress for %.3fs), retry in %.3fs"
      label attempt timeout retry_in
  | Job_failed { label; attempts; error } ->
    Format.fprintf ppf "%s: FAILED after %d attempt%s (%s)" label attempts
      (if attempts = 1 then "" else "s")
      (Printexc.to_string error)
  | Job_timed_out { label; attempts; timeout } ->
    Format.fprintf ppf "%s: TIMED OUT after %d attempt%s (%.3fs deadline)"
      label attempts
      (if attempts = 1 then "" else "s")
      timeout
  | Job_quarantined { label; failures } ->
    Format.fprintf ppf "%s: QUARANTINED after %d failure%s" label failures
      (if failures = 1 then "" else "s")
  | Jobs_skipped { count } ->
    Format.fprintf ppf "drain requested: %d unstarted job%s skipped" count
      (if count = 1 then "" else "s")

let pp_error ppf = function
  | Failed { attempts; error } ->
    Format.fprintf ppf "failed after %d attempt%s: %s" attempts
      (if attempts = 1 then "" else "s")
      (Printexc.to_string error)
  | Timed_out { attempts; timeout } ->
    Format.fprintf ppf "timed out after %d attempt%s (%.3fs deadline)"
      attempts
      (if attempts = 1 then "" else "s")
      timeout
  | Quarantined { failures } ->
    Format.fprintf ppf "quarantined after %d failure%s" failures
      (if failures = 1 then "" else "s")
  | Skipped -> Format.fprintf ppf "skipped (drained before starting)"

let error_to_string e = Format.asprintf "%a" pp_error e

(* ---- cooperative drain (SIGTERM/SIGINT) -------------------------------

   A process-wide flag: signal handlers set it, every running batch
   observes it at the next claim point — in-flight jobs finish, nothing
   new starts, unstarted jobs resolve as [Error Skipped]. *)

let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let drain_requested () = Atomic.get drain_flag
let reset_drain () = Atomic.set drain_flag false

(* ---- the scheduler ---------------------------------------------------- *)

let backoff_delay policy ~attempt =
  (* Deterministic: 2^(attempt-1) * base, capped. *)
  let d = policy.backoff *. (2.0 ** float_of_int (attempt - 1)) in
  Float.min d policy.backoff_cap

type claim = Job of int * int | Wait of float | Done

let map ?(policy = default_policy) ?label ?quarantined ?on_event ~jobs xs f =
  if jobs < 1 then invalid_arg "Supervisor.map: jobs must be >= 1";
  if policy.retries < 0 then invalid_arg "Supervisor.map: retries must be >= 0";
  if policy.job_timeout < 0.0 then
    invalid_arg "Supervisor.map: job_timeout must be >= 0";
  if policy.backoff < 0.0 || policy.backoff_cap < 0.0 then
    invalid_arg "Supervisor.map: backoff must be >= 0";
  match xs with
  | [] -> []
  | _ ->
    let items = Array.of_list xs in
    let m = Array.length items in
    let label = match label with Some l -> l | None -> string_of_int in
    let emit =
      match on_event with Some h -> h | None -> fun (_ : event) -> ()
    in
    let nworkers = min jobs m in
    let inline = nworkers = 1 in
    (* Scheduling state, all under [mu]. Contention is negligible: jobs
       are whole scenario runs, claims are rare. *)
    let mu = Mutex.create () in
    let results : 'b outcome option array = Array.make m None in
    let next_idx = ref 0 in
    let unresolved = ref m in
    (* Failed or timed-out attempts per job. *)
    let attempts = Array.make m 0 in
    (* (not_before, index) — small, scanned linearly. *)
    let retry_q : (float * int) list ref = ref [] in
    let drained = ref false in
    let abort = ref false in
    let first_error : (exn * Printexc.raw_backtrace) option ref = ref None in
    let locked g =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) g
    in
    (* Per-worker watchdog slots: job index (-1 = idle), heartbeat
       counter, cancel flag. All atomics — the watchdog domain reads
       them without the mutex. *)
    let slots =
      Array.init nworkers (fun _ ->
          (Atomic.make (-1), Atomic.make 0, Atomic.make false))
    in
    let resolve_locked ?bt i outcome =
      if results.(i) = None then begin
        results.(i) <- Some outcome;
        decr unresolved;
        match outcome with
        | Error Skipped | Ok _ -> ()
        | Error err ->
          if not policy.keep_going then begin
            abort := true;
            if !first_error = None then begin
              let e =
                match err with
                | Failed { error; _ } -> error
                | Timed_out { attempts; timeout } ->
                  Job_gave_up
                    { label = label i; attempts;
                      reason =
                        Printf.sprintf "no heartbeat progress for %gs" timeout }
                | Quarantined { failures } ->
                  Job_gave_up
                    { label = label i; attempts = failures;
                      reason = "quarantined" }
                | Skipped -> assert false
              in
              let bt =
                match bt with
                | Some bt -> bt
                | None -> Printexc.get_callstack 0
              in
              first_error := Some (e, bt)
            end
          end
      end
    in
    (* A failed or timed-out attempt: requeue with backoff if attempts
       remain, otherwise resolve the job's final outcome. Returns the
       events to emit once the lock is released. *)
    let note_attempt i ~now kind =
      locked (fun () ->
          attempts.(i) <- attempts.(i) + 1;
          let attempts = attempts.(i) in
          if attempts <= policy.retries && not !abort && not !drained then begin
            let retry_in = backoff_delay policy ~attempt:attempts in
            retry_q := (now +. retry_in, i) :: !retry_q;
            match kind with
            | `Failure (e, _) ->
              [ Attempt_failed
                  { label = label i; attempt = attempts; error = e; retry_in } ]
            | `Timeout ->
              [ Attempt_timed_out
                  { label = label i; attempt = attempts;
                    timeout = policy.job_timeout; retry_in } ]
          end
          else
            match kind with
            | `Failure (e, bt) ->
              resolve_locked ~bt i (Error (Failed { attempts; error = e }));
              [ Job_failed { label = label i; attempts; error = e } ]
            | `Timeout ->
              resolve_locked i
                (Error (Timed_out { attempts; timeout = policy.job_timeout }));
              [ Job_timed_out
                  { label = label i; attempts; timeout = policy.job_timeout } ])
    in
    (* Claim the next runnable attempt. Quarantined-on-arrival jobs are
       resolved inside the loop without ever running. *)
    let claim () =
      let events = ref [] in
      let c =
        locked (fun () ->
            let rec go () =
              if !abort || !unresolved = 0 then Done
              else begin
                if drain_requested () && not !drained then begin
                  drained := true;
                  let skipped = ref 0 in
                  for i = !next_idx to m - 1 do
                    if results.(i) = None then begin
                      resolve_locked i (Error Skipped);
                      incr skipped
                    end
                  done;
                  List.iter
                    (fun (_, i) ->
                      if results.(i) = None then begin
                        resolve_locked i (Error Skipped);
                        incr skipped
                      end)
                    !retry_q;
                  retry_q := [];
                  next_idx := m;
                  if !skipped > 0 then
                    events := Jobs_skipped { count = !skipped } :: !events
                end;
                if !abort || !unresolved = 0 then Done
                else begin
                  let now = Unix.gettimeofday () in
                  let due, pending =
                    List.partition (fun (t, _) -> t <= now) !retry_q
                  in
                  match due with
                  | (_, i) :: rest ->
                    retry_q := rest @ pending;
                    Job (i, attempts.(i) + 1)
                  | [] ->
                    if !next_idx < m then begin
                      let i = !next_idx in
                      incr next_idx;
                      match
                        match quarantined with
                        | None -> None
                        | Some q -> q (label i)
                      with
                      | Some failures ->
                        resolve_locked i (Error (Quarantined { failures }));
                        events :=
                          Job_quarantined { label = label i; failures }
                          :: !events;
                        go ()
                      | None -> Job (i, 1)
                    end
                    else begin
                      (* Nothing claimable now: back off briefly, then
                         look again — a retry may come due, or an
                         in-flight job on another worker may fail and
                         requeue. *)
                      let soonest =
                        List.fold_left
                          (fun acc (t, _) -> Float.min acc t)
                          infinity pending
                      in
                      let d =
                        if soonest = infinity then 0.002
                        else Float.max 0.0005 (Float.min 0.002 (soonest -. now))
                      in
                      Wait d
                    end
                end
              end
            in
            go ())
      in
      List.iter emit (List.rev !events);
      c
    in
    (* Run one attempt of job [i] on worker [w]. *)
    let run_attempt w i attempt =
      let job_a, progress, cancel = slots.(w) in
      Atomic.set progress 0;
      Atomic.set cancel false;
      Atomic.set job_a i;
      (* Only the watchdog reads the counter and sets [cancel]; without
         one, a per-round atomic increment (on a cache line the other
         workers' slots may share) is pure cost. *)
      let heartbeat =
        if policy.job_timeout > 0.0 then (fun () ->
          Atomic.incr progress;
          if Atomic.get cancel then raise Cancelled)
        else ignore
      in
      let finish () = Atomic.set job_a (-1) in
      match f ~heartbeat ~attempt items.(i) with
      | r ->
        finish ();
        locked (fun () -> resolve_locked i (Ok r))
      | exception Cancelled ->
        finish ();
        List.iter emit (note_attempt i ~now:(Unix.gettimeofday ()) `Timeout)
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        List.iter
          emit
          (note_attempt i ~now:(Unix.gettimeofday ()) (`Failure (e, bt)))
    in
    let rec worker w () =
      match claim () with
      | Done -> ()
      | Wait d ->
        Unix.sleepf d;
        worker w ()
      | Job (i, attempt) ->
        run_attempt w i attempt;
        worker w ()
    in
    (* Watchdog: cancels a worker's attempt when its heartbeat counter
       stops moving for [job_timeout] seconds. Runs on its own domain so
       it works even in inline mode. *)
    let watchdog_stop = Atomic.make false in
    let watchdog () =
      let prev_job = Array.make nworkers (-1) in
      let prev_progress = Array.make nworkers (-1) in
      let since = Array.make nworkers 0.0 in
      while not (Atomic.get watchdog_stop) do
        Unix.sleepf 0.02;
        let now = Unix.gettimeofday () in
        Array.iteri
          (fun w (job_a, progress, cancel) ->
            let j = Atomic.get job_a in
            if j < 0 then prev_job.(w) <- -1
            else begin
              let p = Atomic.get progress in
              if j <> prev_job.(w) || p <> prev_progress.(w) then begin
                prev_job.(w) <- j;
                prev_progress.(w) <- p;
                since.(w) <- now
              end
              else if now -. since.(w) >= policy.job_timeout then
                Atomic.set cancel true
            end)
          slots
      done
    in
    let watchdog_domain =
      if policy.job_timeout > 0.0 then Some (Domain.spawn watchdog) else None
    in
    let join_watchdog () =
      Atomic.set watchdog_stop true;
      Option.iter Domain.join watchdog_domain
    in
    Fun.protect ~finally:join_watchdog (fun () ->
        if inline then worker 0 ()
        else
          List.iter Domain.join
            (List.init nworkers (fun w -> Domain.spawn (worker w))));
    (match (!first_error, policy.keep_going) with
    | Some (e, bt), false -> Printexc.raise_with_backtrace e bt
    | _ -> ());
    Array.to_list
      (Array.map
         (function Some r -> r | None -> Error Skipped)
         results)
