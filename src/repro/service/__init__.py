"""The streaming session service: a long-lived encode daemon.

``repro.service`` turns the batch grid runner into a durable local
service: :mod:`~repro.service.wire` defines the schema-versioned job
API, :mod:`~repro.service.queue` the persistent CAS-claimed job queue,
:mod:`~repro.service.daemon` the asyncio HTTP+JSONL daemon behind
``repro serve``, and :mod:`~repro.service.client` the synchronous
:class:`~repro.service.client.ServiceClient` used by ``repro
submit``/``status``/``drain``.

This package exports nothing itself.  Examples and benchmarks import
the service types from :mod:`repro.api`, the only import path the
hygiene tests allow them.
"""
