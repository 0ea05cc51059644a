"""Coarse-grained location-based synchronisation.

Activities with a time window, a geofence, and a participant list;
participants' arrivals at the fence generate policy-mediated notifications
to the others. Ships a calendar-file ingestion path, a newline-delimited
JSON wire protocol with a TCP server, an event-sourced engine, and a
deterministic scenario simulator.
"""
